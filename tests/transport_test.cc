#include "net/transport.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/loopback_transport.h"
#include "net/tcp_transport.h"
#include "net/wire_format.h"

namespace nomad {
namespace net {
namespace {

std::vector<uint8_t> Payload(int src, int seq, int stream = 0) {
  // A real control frame, so the bytes that cross the transport also pass
  // through the codec on the far side.
  ControlFrame frame;
  frame.kind = ControlKind::kTraceSync;
  frame.rank = src;
  frame.epoch = seq;
  frame.count = stream;
  std::vector<uint8_t> buf;
  EncodeControl(frame, &buf);
  return buf;
}

// Spins until a frame arrives or ~2s pass; transports are non-blocking.
bool ReceiveWithin(Transport* t, std::vector<uint8_t>* frame, int* src) {
  for (int spin = 0; spin < 20000; ++spin) {
    if (t->TryReceive(frame, src)) return true;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return false;
}

// All-to-all burst over any backend: every rank sends `per_pair` frames to
// every other rank, every frame decodes, per-pair FIFO order holds.
void AllToAll(std::vector<Transport*> ranks, int per_pair) {
  const int world = static_cast<int>(ranks.size());
  for (int s = 0; s < world; ++s) {
    for (int d = 0; d < world; ++d) {
      if (s == d) continue;
      for (int i = 0; i < per_pair; ++i) {
        ASSERT_TRUE(ranks[static_cast<size_t>(s)]
                        ->Send(d, Payload(s, i))
                        .ok());
      }
    }
  }
  for (int d = 0; d < world; ++d) {
    std::vector<int> next_seq(static_cast<size_t>(world), 0);
    int total = 0;
    while (total < (world - 1) * per_pair) {
      std::vector<uint8_t> frame;
      int src = -1;
      ASSERT_TRUE(ReceiveWithin(ranks[static_cast<size_t>(d)], &frame, &src))
          << "rank " << d << " stalled after " << total << " frames";
      auto decoded = DecodeControl(frame.data(), frame.size());
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      EXPECT_EQ(decoded.value().rank, src);
      EXPECT_EQ(decoded.value().epoch, next_seq[static_cast<size_t>(src)]++)
          << "per-pair FIFO violated from rank " << src;
      ++total;
    }
  }
}

TEST(LoopbackTransportTest, AllToAllDeliversInOrder) {
  auto fabric = MakeLoopbackFabric(4);
  std::vector<Transport*> ranks;
  for (auto& t : fabric) ranks.push_back(t.get());
  AllToAll(ranks, 25);
}

TEST(LoopbackTransportTest, StatsCountMessagesAndBytes) {
  auto fabric = MakeLoopbackFabric(2);
  const std::vector<uint8_t> frame = Payload(0, 0);
  ASSERT_TRUE(fabric[0]->Send(1, frame).ok());
  ASSERT_TRUE(fabric[0]->Send(1, frame).ok());
  std::vector<uint8_t> got;
  int src = -1;
  ASSERT_TRUE(fabric[1]->TryReceive(&got, &src));
  EXPECT_EQ(src, 0);
  const TransportStats sender = fabric[0]->stats();
  const TransportStats receiver = fabric[1]->stats();
  EXPECT_EQ(sender.messages_sent, 2);
  EXPECT_EQ(sender.bytes_sent, 2 * static_cast<int64_t>(frame.size()));
  EXPECT_EQ(receiver.messages_received, 1);
  EXPECT_EQ(receiver.bytes_received, static_cast<int64_t>(frame.size()));
}

TEST(LoopbackTransportTest, RejectsBadDestinationAndSendAfterClose) {
  auto fabric = MakeLoopbackFabric(2);
  EXPECT_EQ(fabric[0]->Send(0, Payload(0, 0)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fabric[0]->Send(5, Payload(0, 0)).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(fabric[0]->Close().ok());
  EXPECT_EQ(fabric[0]->Send(1, Payload(0, 0)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(LoopbackTransportTest, BroadcastReachesEveryoneButSelf) {
  auto fabric = MakeLoopbackFabric(3);
  ASSERT_TRUE(fabric[1]->Broadcast(Payload(1, 7)).ok());
  for (int r : {0, 2}) {
    std::vector<uint8_t> frame;
    int src = -1;
    ASSERT_TRUE(fabric[static_cast<size_t>(r)]->TryReceive(&frame, &src));
    EXPECT_EQ(src, 1);
  }
  std::vector<uint8_t> frame;
  int src = -1;
  EXPECT_FALSE(fabric[1]->TryReceive(&frame, &src));
}

// Thread i sends stream i through senders[i], all at once, to `receiver`;
// every stream must arrive complete and in order.
void ConcurrentSendersDontLoseFrames(const std::vector<Transport*>& senders,
                                     Transport* receiver) {
  constexpr int kPerSender = 500;
  std::vector<std::thread> threads;
  for (size_t i = 0; i < senders.size(); ++i) {
    threads.emplace_back([&, i] {
      Transport* sender = senders[i];
      for (int seq = 0; seq < kPerSender; ++seq) {
        ASSERT_TRUE(sender
                        ->Send(receiver->rank(),
                               Payload(sender->rank(), seq,
                                       static_cast<int>(i)))
                        .ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  std::vector<int> next(senders.size(), 0);
  for (size_t got = 0; got < senders.size() * kPerSender; ++got) {
    std::vector<uint8_t> frame;
    int src = -1;
    ASSERT_TRUE(ReceiveWithin(receiver, &frame, &src)) << "after " << got;
    auto decoded = DecodeControl(frame.data(), frame.size());
    ASSERT_TRUE(decoded.ok());
    const size_t stream = static_cast<size_t>(decoded.value().count);
    ASSERT_LT(stream, senders.size());
    EXPECT_EQ(src, senders[stream]->rank());
    EXPECT_EQ(decoded.value().epoch, next[stream]++) << "stream " << stream;
  }
}

TEST(LoopbackTransportTest, ConcurrentSendersDontLoseFrames) {
  auto fabric = MakeLoopbackFabric(3);
  ConcurrentSendersDontLoseFrames({fabric[1].get(), fabric[2].get()},
                                  fabric[0].get());
}

// Builds a world-sized TCP mesh on 127.0.0.1 with kernel-assigned ports:
// every endpoint listens first (so the ports are known), then all
// Establish() calls run concurrently the way separate processes would.
std::vector<std::unique_ptr<TcpTransport>> MakeTcpMesh(int world) {
  std::vector<std::unique_ptr<TcpTransport>> mesh;
  std::vector<TcpPeer> peers(static_cast<size_t>(world));
  for (int r = 0; r < world; ++r) {
    auto t = TcpTransport::Listen(r, world, /*port=*/0);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    if (!t.ok()) return {};
    peers[static_cast<size_t>(r)] = {"127.0.0.1",
                                     t.value()->listen_port()};
    mesh.push_back(std::move(t).value());
  }
  std::vector<std::thread> establishers;
  std::atomic<bool> all_ok{true};
  for (int r = 0; r < world; ++r) {
    establishers.emplace_back([&, r] {
      const Status s = mesh[static_cast<size_t>(r)]->Establish(peers);
      if (!s.ok()) {
        all_ok.store(false);
        ADD_FAILURE() << "rank " << r << ": " << s.ToString();
      }
    });
  }
  for (auto& t : establishers) t.join();
  if (!all_ok.load()) return {};
  return mesh;
}

TEST(TcpTransportTest, TwoRankRoundTrip) {
  auto mesh = MakeTcpMesh(2);
  ASSERT_EQ(mesh.size(), 2u);
  ASSERT_TRUE(mesh[0]->Send(1, Payload(0, 0)).ok());
  std::vector<uint8_t> frame;
  int src = -1;
  ASSERT_TRUE(ReceiveWithin(mesh[1].get(), &frame, &src));
  EXPECT_EQ(src, 0);
  auto decoded = DecodeControl(frame.data(), frame.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().rank, 0);
  // And the reverse direction over the same socket.
  ASSERT_TRUE(mesh[1]->Send(0, Payload(1, 3)).ok());
  ASSERT_TRUE(ReceiveWithin(mesh[0].get(), &frame, &src));
  EXPECT_EQ(src, 1);
}

TEST(TcpTransportTest, ThreeRankAllToAllSurvivesBursts) {
  auto mesh = MakeTcpMesh(3);
  ASSERT_EQ(mesh.size(), 3u);
  std::vector<Transport*> ranks;
  for (auto& t : mesh) ranks.push_back(t.get());
  AllToAll(ranks, 200);
}

TEST(TcpTransportTest, LargeFactorRowFramesSurviveReassembly) {
  auto mesh = MakeTcpMesh(2);
  ASSERT_EQ(mesh.size(), 2u);
  // Bigger than one recv() buffer when batched: 200 frames of k=129 f64
  // rows (~1 KB each), sent back-to-back so the receiver must reassemble
  // frames split across TCP segment boundaries.
  std::vector<double> row(129);
  for (size_t i = 0; i < row.size(); ++i) row[i] = 0.5 * static_cast<double>(i);
  std::vector<uint8_t> frame;
  for (int i = 0; i < 200; ++i) {
    EncodeFactorRow<double>(MsgType::kToken, i, static_cast<uint32_t>(i),
                            row.data(), 129, &frame);
    ASSERT_TRUE(mesh[0]->Send(1, frame).ok());
  }
  for (int i = 0; i < 200; ++i) {
    std::vector<uint8_t> got;
    int src = -1;
    ASSERT_TRUE(ReceiveWithin(mesh[1].get(), &got, &src)) << "frame " << i;
    auto view = DecodeFactorRow<double>(got.data(), got.size());
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_EQ(view.value().id, i);
    EXPECT_EQ(view.value().values[128], row[128]);
  }
}

TEST(TcpTransportTest, ConcurrentSendersDontLoseFrames) {
  auto mesh = MakeTcpMesh(2);
  ASSERT_EQ(mesh.size(), 2u);
  // Four threads of rank 0 share one connection to rank 1.
  ConcurrentSendersDontLoseFrames(
      {mesh[0].get(), mesh[0].get(), mesh[0].get(), mesh[0].get()},
      mesh[1].get());
}

// After writing, a communicator only reads until its write window has
// passed. A frame queued inside the window must leave when it closes, not
// at the next 200 ms poll timeout. Each side answers at once, so most
// frames below are queued while the window their sender's previous frame
// opened is still running.
TEST(TcpTransportTest, PingPongFramesLeaveWhenTheWindowCloses) {
  auto mesh = MakeTcpMesh(2);
  ASSERT_EQ(mesh.size(), 2u);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  // Spins instead of sleeping, so a reply follows its request at once.
  auto receive = [&](Transport* t, std::vector<uint8_t>* frame) {
    int src = -1;
    while (!t->TryReceive(frame, &src)) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::yield();
    }
    return true;
  };
  std::vector<uint8_t> frame;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(mesh[0]->Send(1, Payload(0, i)).ok());
    ASSERT_TRUE(receive(mesh[1].get(), &frame)) << "ping " << i << " late";
    ASSERT_TRUE(mesh[1]->Send(0, Payload(1, i)).ok());
    ASSERT_TRUE(receive(mesh[0].get(), &frame)) << "pong " << i << " late";
    auto decoded = DecodeControl(frame.data(), frame.size());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().epoch, i);
  }
}

// A back-to-back burst from one thread leaves in far fewer socket writes
// than frames (the queue is taken once per window, not once per frame)
// and still arrives complete and in order.
TEST(TcpTransportTest, BurstLeavesInFewerWritesThanFrames) {
  auto mesh = MakeTcpMesh(2);
  ASSERT_EQ(mesh.size(), 2u);
  constexpr int kBurst = 2000;
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(mesh[0]->Send(1, Payload(0, i)).ok());
  }
  for (int i = 0; i < kBurst; ++i) {
    std::vector<uint8_t> frame;
    int src = -1;
    ASSERT_TRUE(ReceiveWithin(mesh[1].get(), &frame, &src)) << "frame " << i;
    auto decoded = DecodeControl(frame.data(), frame.size());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(src, 0);
    EXPECT_EQ(decoded.value().epoch, i);
  }
  const TransportStats sent = mesh[0]->stats();
  EXPECT_EQ(sent.messages_sent, kBurst);
  EXPECT_GT(sent.writes, 0);
  EXPECT_LT(sent.writes, kBurst / 2);
}

TEST(TcpTransportTest, EmptyFrameIsRejectedAndTheLinkSurvives) {
  auto mesh = MakeTcpMesh(2);
  ASSERT_EQ(mesh.size(), 2u);
  // A zero length prefix would make the receiver drop the connection.
  EXPECT_EQ(mesh[0]->Send(1, {}).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(mesh[0]->Send(1, Payload(0, 7)).ok());
  std::vector<uint8_t> frame;
  int src = -1;
  ASSERT_TRUE(ReceiveWithin(mesh[1].get(), &frame, &src));
  auto decoded = DecodeControl(frame.data(), frame.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().epoch, 7);
  EXPECT_EQ(mesh[0]->peer_status(1), PeerStatus::kAlive);
  EXPECT_EQ(mesh[1]->peer_status(0), PeerStatus::kAlive);
}

// Queues `frames` on rank 0 and closes it at once: every frame must still
// reach rank 1, byte-exact and in order.
void ExpectCloseFlushes(const std::vector<std::vector<uint8_t>>& frames) {
  auto mesh = MakeTcpMesh(2);
  ASSERT_EQ(mesh.size(), 2u);
  for (const auto& f : frames) ASSERT_TRUE(mesh[0]->Send(1, f).ok());
  ASSERT_TRUE(mesh[0]->Close().ok());
  for (size_t i = 0; i < frames.size(); ++i) {
    std::vector<uint8_t> frame;
    int src = -1;
    ASSERT_TRUE(ReceiveWithin(mesh[1].get(), &frame, &src))
        << "frame " << i << " lost at close";
    ASSERT_TRUE(frame == frames[i])
        << "frame " << i << ": " << frame.size() << " bytes, sent "
        << frames[i].size();
  }
  EXPECT_EQ(mesh[0]->Send(1, Payload(0, 0)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(TcpTransportTest, CloseFlushesPendingSends) {
  std::vector<std::vector<uint8_t>> controls;
  for (int i = 0; i < 50; ++i) controls.push_back(Payload(0, i));
  ExpectCloseFlushes(controls);

  // 16 MiB, far past the socket buffers, so the flush hits EAGAIN midway.
  // The sizes straddle the 1/2- and 2/3-byte length-prefix boundaries, so
  // recv() boundaries split prefixes of every width.
  const size_t sizes[] = {127, 128, 16383, 16384, 1, 129, 16385};
  std::vector<std::vector<uint8_t>> burst;
  size_t total = 0;
  for (size_t i = 0; total < (size_t{16} << 20); ++i) {
    std::vector<uint8_t> frame(sizes[i % std::size(sizes)]);
    for (size_t b = 0; b < frame.size(); ++b) {
      frame[b] = static_cast<uint8_t>(i * 131 + b * 7 + 1);
    }
    frame[0] = 0xA5;  // never the [kControl, kHeartbeat] beacon opener
    total += frame.size();
    burst.push_back(std::move(frame));
  }
  ExpectCloseFlushes(burst);
}

TEST(TcpTransportTest, MismatchedHelloRefusesToConnect) {
  TcpOptions f64;
  f64.hello_k = 16;
  f64.connect_timeout_seconds = 2.0;  // the reject side waits out its clock
  auto a = TcpTransport::Listen(0, 2, 0, f64);
  ASSERT_TRUE(a.ok());
  TcpOptions f32 = f64;
  f32.hello_f32 = true;  // same k, different factor precision: incompatible
  auto c = TcpTransport::Listen(1, 2, 0, f32);
  ASSERT_TRUE(c.ok());
  std::vector<TcpPeer> peers = {{"127.0.0.1", a.value()->listen_port()},
                                {"127.0.0.1", c.value()->listen_port()}};
  std::thread accept_side([&] {
    // The accept side just rejects the bad peer and keeps waiting; it
    // times out since no valid peer ever arrives.
    (void)a.value()->Establish(peers);
  });
  const Status s = c.value()->Establish(peers);
  EXPECT_FALSE(s.ok());
  accept_side.join();
}

// ---------------------------------------------------------------------------
// Liveness detection
// ---------------------------------------------------------------------------

HeartbeatOptions FastHeartbeat() {
  HeartbeatOptions hb;
  hb.interval_seconds = 0.01;
  hb.timeout_seconds = 0.1;
  return hb;
}

/// Polls `t` (which also drives its piggybacked heartbeats) until `peer`
/// reads `want`, up to ~2s.
bool StatusWithin(Transport* t, int peer, PeerStatus want) {
  for (int spin = 0; spin < 20000; ++spin) {
    std::vector<uint8_t> frame;
    int src = -1;
    while (t->TryReceive(&frame, &src)) {
    }
    if (t->peer_status(peer) == want) return true;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return false;
}

// Connects to `port` as rank 1 of 2 over a plain socket and completes the
// hello exchange by hand; returns the socket, or -1.
int RawPeerHandshake(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  struct timeval timeout = {5, 0};  // a silent endpoint fails the test
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  HelloFrame hello;
  hello.rank = 1;
  hello.world = 2;
  std::vector<uint8_t> payload;
  EncodeHello(hello, &payload);
  // The hello alone keeps a u32 length prefix.
  std::vector<uint8_t> framed(4);
  const uint32_t len = static_cast<uint32_t>(payload.size());
  std::memcpy(framed.data(), &len, 4);
  framed.insert(framed.end(), payload.begin(), payload.end());
  std::vector<uint8_t> reply(framed.size());
  if (connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      send(fd, framed.data(), framed.size(), MSG_NOSIGNAL) !=
          static_cast<ssize_t>(framed.size()) ||
      recv(fd, reply.data(), reply.size(), MSG_WAITALL) !=
          static_cast<ssize_t>(reply.size())) {
    close(fd);
    return -1;
  }
  return fd;
}

// Waits up to ~2s for the endpoint to close `fd`: true on EOF or reset.
bool ClosedWithin(int fd) {
  struct pollfd pfd = {fd, POLLIN, 0};
  if (poll(&pfd, 1, 2000) != 1) return false;
  uint8_t byte = 0;
  return recv(fd, &byte, 1, 0) <= 0;
}

TEST(TcpTransportTest, MalformedLengthPrefixDropsThePeerCleanly) {
  struct Case {
    const char* name;
    std::vector<uint8_t> bytes;
  };
  const Case cases[] = {
      {"five continuation bytes", {0x80, 0x80, 0x80, 0x80, 0x80}},
      {"1001 bytes over a 1000-byte limit", {0xE9, 0x07}},
      {"zero length", {0x00}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    TcpOptions opts;
    opts.max_frame_bytes = 1000;
    auto listened = TcpTransport::Listen(0, 2, /*port=*/0, opts);
    ASSERT_TRUE(listened.ok());
    TcpTransport* endpoint = listened.value().get();
    const std::vector<TcpPeer> peers = {
        {"127.0.0.1", endpoint->listen_port()}, {"127.0.0.1", 0}};
    Status established;
    std::thread accept_side(
        [&] { established = endpoint->Establish(peers); });
    const int fd = RawPeerHandshake(endpoint->listen_port());
    accept_side.join();
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(established.ok()) << established.ToString();
    EXPECT_EQ(endpoint->peer_status(1), PeerStatus::kAlive);

    ASSERT_EQ(send(fd, c.bytes.data(), c.bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(c.bytes.size()));
    EXPECT_TRUE(StatusWithin(endpoint, 1, PeerStatus::kDead));
    EXPECT_TRUE(ClosedWithin(fd));
    EXPECT_EQ(endpoint->Send(1, Payload(0, 0)).code(),
              StatusCode::kUnavailable);
    std::vector<uint8_t> frame;
    int src = -1;
    EXPECT_FALSE(endpoint->TryReceive(&frame, &src));
    close(fd);
    EXPECT_TRUE(endpoint->Close().ok());
  }
}

TEST(LoopbackTransportTest, HeartbeatDetectsASilentPeer) {
  auto fabric = MakeLoopbackFabric(3, FastHeartbeat());
  // Everyone starts alive, and peers that keep pumping stay alive: spin
  // well past the timeout before going quiet.
  for (int spin = 0; spin < 50; ++spin) {
    for (auto& t : fabric) {
      std::vector<uint8_t> frame;
      int src = -1;
      while (t->TryReceive(&frame, &src)) {
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(fabric[0]->peer_status(1), PeerStatus::kAlive);
  EXPECT_EQ(fabric[0]->peer_status(2), PeerStatus::kAlive);
  // Rank 2 stops pumping (its process "hangs"): its beacons cease and the
  // others declare it dead within the timeout, while still seeing each
  // other alive — both keep beating through their own polls, so they must
  // be pumped together (beacons piggyback on transport calls).
  bool both_dead = false;
  for (int spin = 0; spin < 20000 && !both_dead; ++spin) {
    for (int r = 0; r < 2; ++r) {
      std::vector<uint8_t> frame;
      int src = -1;
      while (fabric[static_cast<size_t>(r)]->TryReceive(&frame, &src)) {
      }
    }
    both_dead = fabric[0]->peer_status(2) == PeerStatus::kDead &&
                fabric[1]->peer_status(2) == PeerStatus::kDead;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_TRUE(both_dead);
  EXPECT_EQ(fabric[0]->peer_status(1), PeerStatus::kAlive);
  EXPECT_EQ(fabric[1]->peer_status(0), PeerStatus::kAlive);
}

TEST(LoopbackTransportTest, WithoutHeartbeatsSilenceIsNotDeath) {
  auto fabric = MakeLoopbackFabric(2);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(fabric[0]->peer_status(1), PeerStatus::kAlive);
}

std::vector<std::unique_ptr<TcpTransport>> EstablishTcpPair(
    const TcpOptions& topts) {
  std::vector<std::unique_ptr<TcpTransport>> mesh;
  std::vector<TcpPeer> peers(2);
  for (int r = 0; r < 2; ++r) {
    auto t = TcpTransport::Listen(r, 2, /*port=*/0, topts);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    if (!t.ok()) return {};
    peers[static_cast<size_t>(r)] = {"127.0.0.1", t.value()->listen_port()};
    mesh.push_back(std::move(t).value());
  }
  std::vector<std::thread> establishers;
  for (int r = 0; r < 2; ++r) {
    establishers.emplace_back([&, r] {
      const Status s = mesh[static_cast<size_t>(r)]->Establish(peers);
      EXPECT_TRUE(s.ok()) << "rank " << r << ": " << s.ToString();
    });
  }
  for (auto& t : establishers) t.join();
  return mesh;
}

TEST(TcpTransportTest, HeartbeatDetectsAClosedPeer) {
  TcpOptions topts;
  topts.heartbeat = FastHeartbeat();
  auto mesh = EstablishTcpPair(topts);
  ASSERT_EQ(mesh.size(), 2u);
  EXPECT_EQ(mesh[0]->peer_status(1), PeerStatus::kAlive);
  // Rank 1 goes away entirely; rank 0's comm thread sees the connection
  // drop (or the beacons stop) and flips its verdict.
  EXPECT_TRUE(mesh[1]->Close().ok());
  EXPECT_TRUE(StatusWithin(mesh[0].get(), 1, PeerStatus::kDead));
  EXPECT_TRUE(mesh[0]->Close().ok());
}

// TSan target: the heartbeat timeout evaluation must not race Close() —
// one thread hammers peer_status()/TryReceive() while the other tears the
// endpoint down.
TEST(TcpTransportTest, HeartbeatTimeoutRacesCloseSafely) {
  TcpOptions topts;
  topts.heartbeat = FastHeartbeat();
  auto mesh = EstablishTcpPair(topts);
  ASSERT_EQ(mesh.size(), 2u);
  std::atomic<bool> done{false};
  std::thread poller([&] {
    while (!done.load()) {
      std::vector<uint8_t> frame;
      int src = -1;
      mesh[0]->TryReceive(&frame, &src);
      (void)mesh[0]->peer_status(1);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_TRUE(mesh[1]->Close().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_TRUE(mesh[0]->Close().ok());
  done.store(true);
  poller.join();
}

TEST(TcpTransportTest, ParseTcpPeerHandlesHostPortAndBarePort) {
  auto full = ParseTcpPeer("10.1.2.3:9000");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value().host, "10.1.2.3");
  EXPECT_EQ(full.value().port, 9000);
  auto bare = ParseTcpPeer("9001");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare.value().host, "127.0.0.1");
  EXPECT_EQ(bare.value().port, 9001);
  // Port 0 = "listens ephemeral, never dialed" — how meshes avoid fixed
  // ports for the accept-only ranks.
  auto ephemeral = ParseTcpPeer("127.0.0.1:0");
  ASSERT_TRUE(ephemeral.ok());
  EXPECT_EQ(ephemeral.value().port, 0);
  EXPECT_FALSE(ParseTcpPeer("").ok());
  EXPECT_FALSE(ParseTcpPeer("host:").ok());
  EXPECT_FALSE(ParseTcpPeer("host:notaport").ok());
  EXPECT_FALSE(ParseTcpPeer("host:99999").ok());
}

}  // namespace
}  // namespace net
}  // namespace nomad
