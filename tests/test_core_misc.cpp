// Control-plane units and edge cases: message channels, protocol
// round-trips, connectivity corner cases (pending accepts, shared ports),
// failure injection (corrupt/missing images), time virtualization across
// a full checkpoint-restart, and the NETWORK_LAST ordering path.
#include <gtest/gtest.h>

#include "core/agent.h"
#include "core/channel.h"
#include "core/manager.h"
#include "core/protocol.h"
#include "net/tcp.h"
#include "os/cluster.h"
#include "tests/guest_programs.h"

namespace zapc::core {
namespace {

using test::EchoClient;
using test::EchoServer;

net::IpAddr vip(u8 i) { return net::IpAddr(10, 77, 0, i); }

// ---- MsgChannel -----------------------------------------------------------------

class ChannelTest : public ::testing::Test {
 protected:
  ChannelTest() {
    n1_ = &cl_.add_node("n1");
    n2_ = &cl_.add_node("n2");
  }
  os::Cluster cl_;
  os::Node* n1_;
  os::Node* n2_;
};

TEST_F(ChannelTest, MessagesArriveFramedAndInOrder) {
  std::vector<std::string> got;
  std::unique_ptr<MsgChannel> server_ch;
  MsgServer server(n2_->host_stack(), 9000,
                   [&](std::unique_ptr<MsgChannel> ch) {
                     server_ch = std::move(ch);
                     server_ch->set_on_msg([&](Bytes msg) {
                       got.push_back(to_string(msg));
                     });
                   });
  auto client = connect_channel(n1_->host_stack(),
                                net::SockAddr{n2_->addr(), 9000});
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->send(to_bytes("alpha")).is_ok());
  ASSERT_TRUE(client->send(to_bytes("beta")).is_ok());
  ASSERT_TRUE(client->send(Bytes{}).is_ok());  // empty message is legal
  cl_.run_for(100 * sim::kMillisecond);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], "alpha");
  EXPECT_EQ(got[1], "beta");
  EXPECT_EQ(got[2], "");
}

TEST_F(ChannelTest, LargeMessageCrossesIntact) {
  Bytes big(3 << 20);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<u8>(i * 13);
  }
  Bytes got;
  std::unique_ptr<MsgChannel> server_ch;
  MsgServer server(n2_->host_stack(), 9000,
                   [&](std::unique_ptr<MsgChannel> ch) {
                     server_ch = std::move(ch);
                     server_ch->set_on_msg([&](Bytes msg) {
                       got = std::move(msg);
                     });
                   });
  auto client = connect_channel(n1_->host_stack(),
                                net::SockAddr{n2_->addr(), 9000});
  ASSERT_TRUE(client->send(big).is_ok());
  cl_.run_for(2 * sim::kSecond);
  EXPECT_EQ(got, big);
}

TEST_F(ChannelTest, PeerCloseTriggersOnClosed) {
  bool closed = false;
  std::unique_ptr<MsgChannel> server_ch;
  MsgServer server(n2_->host_stack(), 9000,
                   [&](std::unique_ptr<MsgChannel> ch) {
                     server_ch = std::move(ch);
                     server_ch->set_on_closed([&] { closed = true; });
                   });
  auto client = connect_channel(n1_->host_stack(),
                                net::SockAddr{n2_->addr(), 9000});
  ASSERT_TRUE(client->send(to_bytes("hello")).is_ok());
  cl_.run_for(50 * sim::kMillisecond);
  client->close();
  cl_.run_for(50 * sim::kMillisecond);
  EXPECT_TRUE(closed);
}

TEST_F(ChannelTest, SendAfterCloseFails) {
  auto client = connect_channel(n1_->host_stack(),
                                net::SockAddr{n2_->addr(), 9000});
  client->close();
  EXPECT_EQ(client->send(to_bytes("x")).err(), Err::PIPE);
}

// ---- Protocol round trips -----------------------------------------------------

TEST(Protocol, CheckpointCmdRoundTrip) {
  CheckpointCmd m;
  m.pod_name = "pod-a";
  m.dest_uri = "agent://192.168.1.5:7077/tag";
  m.mode = CkptMode::MIGRATE;
  m.redirect_send_queues = true;
  m.fs_snapshot = true;
  m.peer_agents.emplace_back(vip(3),
                             net::SockAddr{net::IpAddr(192, 168, 1, 9), 7077});
  auto back = decode<CheckpointCmd>(encode(m));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().pod_name, "pod-a");
  EXPECT_EQ(back.value().mode, CkptMode::MIGRATE);
  EXPECT_TRUE(back.value().redirect_send_queues);
  EXPECT_TRUE(back.value().fs_snapshot);
  ASSERT_EQ(back.value().peer_agents.size(), 1u);
  EXPECT_EQ(back.value().peer_agents[0].first, vip(3));
}

TEST(Protocol, RestartCmdRoundTrip) {
  RestartCmd m;
  m.pod_name = "pod-b";
  m.source_uri = "stream://tag";
  m.meta.pod_vip = vip(2);
  ckpt::NetMetaEntry e;
  e.sock = 4;
  e.role = ckpt::PeerRole::ACCEPT;
  e.discard_send = 99;
  m.meta.entries.push_back(e);
  m.locations.emplace_back(vip(2), net::IpAddr(192, 168, 1, 7));
  auto back = decode<RestartCmd>(encode(m));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().meta.entries[0].discard_send, 99u);
  EXPECT_EQ(back.value().locations[0].second, net::IpAddr(192, 168, 1, 7));
}

TEST(Protocol, TypeMismatchRejected) {
  Bytes msg = encode(ContinueMsg{});
  EXPECT_EQ(decode<CkptDone>(msg).err(), Err::PROTO);
  EXPECT_EQ(peek_type(msg).value(), MsgType::CONTINUE);
  EXPECT_EQ(peek_type(Bytes{}).err(), Err::PROTO);
}

TEST(Protocol, RedirectDataRoundTrip) {
  RedirectData m;
  m.dst_pod_vip = vip(1);
  m.dst_local = net::SockAddr{vip(1), 80};
  m.dst_remote = net::SockAddr{vip(2), 8080};
  m.sender_acked = 777;
  m.data = to_bytes("queued payload");
  auto back = decode<RedirectData>(encode(m));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().sender_acked, 777u);
  EXPECT_EQ(to_string(back.value().data), "queued payload");
}

TEST(Protocol, ParseUriTable) {
  struct Case {
    const char* uri;
    bool ok;
    const char* scheme;
    const char* path;
    u16 port;
  };
  const Case cases[] = {
      {"san://ckpt/pod-a", true, "san", "ckpt/pod-a", 0},
      {"stream://pod-a-mig", true, "stream", "pod-a-mig", 0},
      {"agent://10.0.0.2:7077/pod-a-mig", true, "agent", "pod-a-mig", 7077},
      {"agent://10.0.0.2:0/t", true, "agent", "t", 0},
      {"agent://10.0.0.2:65535/t", true, "agent", "t", 65535},
      {"agent://10.0.0.2:7077", false, "", "", 0},    // missing tag
      {"agent://10.0.0.2/t", false, "", "", 0},       // missing port
      {"agent://10.0.0.2:/t", false, "", "", 0},      // empty port
      {"agent://10.0.0.2:x/t", false, "", "", 0},     // non-numeric
      {"agent://10.0.0.2:77x/t", false, "", "", 0},   // trailing junk
      {"agent://10.0.0.2:-1/t", false, "", "", 0},    // signed
      {"agent://10.0.0.2:+1/t", false, "", "", 0},    // signed
      {"agent://10.0.0.2: 1/t", false, "", "", 0},    // blank
      {"agent://10.0.0.2:65536/t", false, "", "", 0},  // > 65535
      {"agent://10.0.0.2:99999/t", false, "", "", 0},  // would wrap to 34463
      {"agent://10.0.0.2:99999999999999999999/t", false, "", "", 0},
      {"agent://10.0.0:7077/t", false, "", "", 0},    // bad address
      {"agent://host/x:7077", false, "", "", 0},      // colon past the tag
      {"nfs://ckpt/pod-a", false, "", "", 0},         // unknown scheme
      {"ckpt/pod-a", false, "", "", 0},               // no scheme
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.uri);
    auto u = parse_uri(c.uri);
    ASSERT_EQ(u.is_ok(), c.ok) << u.status().to_string();
    if (!c.ok) {
      EXPECT_EQ(u.err(), Err::INVALID);
      EXPECT_NE(u.status().message().find(c.uri), std::string::npos)
          << u.status().message();
      continue;
    }
    EXPECT_EQ(u.value().scheme, c.scheme);
    EXPECT_EQ(u.value().path, c.path);
    EXPECT_EQ(u.value().endpoint.port, c.port);
  }
  auto a = parse_uri("agent://10.0.0.2:7077/t");
  ASSERT_TRUE(a.is_ok());
  EXPECT_EQ(a.value().endpoint.ip, net::IpAddr::parse("10.0.0.2").value());
  EXPECT_EQ(staging_path("ckpt/pod-a"), "ckpt/pod-a.tmp");
}

// ---- Full-stack corner cases -----------------------------------------------------

class CornerTest : public ::testing::Test {
 protected:
  CornerTest() {
    mgr_node_ = &cl_.add_node("mgr");
    for (int i = 0; i < 4; ++i) {
      nodes_.push_back(&cl_.add_node("n" + std::to_string(i + 1)));
      agents_.push_back(std::make_unique<Agent>(*nodes_.back()));
    }
    manager_ = std::make_unique<Manager>(*mgr_node_);
  }

  Manager::CheckpointReport checkpoint(std::vector<Manager::Target> t,
                                       CkptMode mode = CkptMode::SNAPSHOT) {
    Manager::CheckpointReport out;
    bool done = false;
    manager_->checkpoint(std::move(t), mode, [&](auto r) {
      out = std::move(r);
      done = true;
    });
    for (int i = 0; i < 30000 && !done; ++i) cl_.run_for(sim::kMillisecond);
    return out;
  }

  Manager::RestartReport restart(std::vector<Manager::Target> t) {
    Manager::RestartReport out;
    bool done = false;
    manager_->restart(std::move(t), {}, [&](auto r) {
      out = std::move(r);
      done = true;
    });
    for (int i = 0; i < 60000 && !done; ++i) cl_.run_for(sim::kMillisecond);
    return out;
  }

  os::Cluster cl_;
  os::Node* mgr_node_;
  std::vector<os::Node*> nodes_;
  std::vector<std::unique_ptr<Agent>> agents_;
  std::unique_ptr<Manager> manager_;
};

TEST_F(CornerTest, CorruptImageFailsGracefully) {
  pod::Pod& sp = agents_[0]->create_pod(vip(1), "p1");
  sp.spawn(std::make_unique<test::CounterProgram>(1000000, 100));
  cl_.run_for(10 * sim::kMillisecond);
  auto cr = checkpoint({{agents_[0]->addr(), "p1", "san://ckpt/p1"}});
  ASSERT_TRUE(cr.ok);

  // Corrupt the stored image.
  Bytes img = cl_.san().read("ckpt/p1").value();
  img[img.size() / 2] ^= 0xFF;
  ASSERT_TRUE(cl_.san().write("ckpt/p1", img).is_ok());

  ASSERT_TRUE(agents_[0]->destroy_pod("p1").is_ok());
  auto rr = restart({{agents_[1]->addr(), "p1", "san://ckpt/p1"}});
  EXPECT_FALSE(rr.ok);
  // No half-restored pod lingers.
  EXPECT_EQ(agents_[1]->find_pod("p1"), nullptr);
}

TEST_F(CornerTest, MissingImageFailsGracefully) {
  auto rr = restart({{agents_[0]->addr(), "ghost", "san://nowhere"}});
  EXPECT_FALSE(rr.ok);
}

TEST_F(CornerTest, NetworkLastOrderingStillCorrect) {
  for (auto& a : agents_) a->set_ordering(CkptOrdering::NETWORK_LAST);
  pod::Pod& sp = agents_[0]->create_pod(vip(1), "server-pod");
  sp.spawn(std::make_unique<EchoServer>(5000));
  pod::Pod& cp = agents_[1]->create_pod(vip(2), "client-pod");
  i32 cpid = cp.spawn(std::make_unique<EchoClient>(
      net::SockAddr{vip(1), 5000}, 4 << 20));
  cl_.run_for(20 * sim::kMillisecond);

  auto cr = checkpoint({
      {agents_[0]->addr(), "server-pod", "san://ckpt/s"},
      {agents_[1]->addr(), "client-pod", "san://ckpt/c"},
  });
  ASSERT_TRUE(cr.ok) << cr.error;

  // Crash + restart from the NETWORK_LAST images: still fully correct.
  ASSERT_TRUE(agents_[0]->destroy_pod("server-pod").is_ok());
  ASSERT_TRUE(agents_[1]->destroy_pod("client-pod").is_ok());
  auto rr = restart({
      {agents_[2]->addr(), "server-pod", "san://ckpt/s"},
      {agents_[3]->addr(), "client-pod", "san://ckpt/c"},
  });
  ASSERT_TRUE(rr.ok) << rr.error;
  for (int i = 0; i < 12000; ++i) {
    cl_.run_for(10 * sim::kMillisecond);
    pod::Pod* p = agents_[3]->find_pod("client-pod");
    os::Process* proc = p->find_process(cpid);
    if (proc->state() == os::ProcState::EXITED) {
      EXPECT_EQ(proc->exit_code(), 0);
      return;
    }
  }
  FAIL() << "client did not finish";
}

/// Creates a listener but never accepts.
class LazyListener final : public os::FieldProgram<LazyListener> {
 public:
  const char* kind() const override { return "test.lazy_listener"; }
  os::StepResult step(os::Syscalls& sys) override {
    if (pc_ == 0) {
      auto fd = sys.socket(net::Proto::TCP);
      lfd_ = fd.value_or(-1);
      (void)sys.bind(lfd_, net::SockAddr{net::kAnyAddr, 5000});
      (void)sys.listen(lfd_, 8);
      pc_ = 1;
    }
    return os::StepResult::block(os::WaitSpec::sleep(sim::kSecond));
  }

 private:
  template <class F>
  friend void io(F& f, LazyListener& p) {
    f(p.pc_, p.lfd_);
  }

  u32 pc_ = 0;
  i32 lfd_ = -1;
};

/// Records virtual timestamps before and after a long downtime window.
class Stamper final : public os::FieldProgram<Stamper> {
 public:
  const char* kind() const override { return "test.stamper"; }
  os::StepResult step(os::Syscalls& sys) override {
    Bytes& reg = sys.region("stamps", 64);
    if (pc_ == 0) {
      Encoder e;
      e.put_u64(sys.time());
      std::copy(e.bytes().begin(), e.bytes().end(), reg.begin());
      pc_ = 1;
      return os::StepResult::block(os::WaitSpec::sleep(5000));
    }
    Encoder e;
    e.put_u64(sys.time());
    std::copy(e.bytes().begin(), e.bytes().end(), reg.begin() + 8);
    return os::StepResult::exit(0);
  }

 private:
  template <class F>
  friend void io(F& f, Stamper& p) {
    f(p.pc_);
  }

  u32 pc_ = 0;
};

TEST_F(CornerTest, PendingAcceptSurvivesRestart) {
  // A connection sitting un-accepted in the listener's queue at
  // checkpoint time must be back in the queue after restart.
  pod::Pod& sp = agents_[0]->create_pod(vip(1), "lsn-pod");
  os::ProgramRegistry::instance().add("test.lazy_listener", [] {
    return std::make_unique<LazyListener>();
  });
  sp.spawn(std::make_unique<LazyListener>());

  pod::Pod& cp = agents_[1]->create_pod(vip(2), "conn-pod");
  cp.spawn(std::make_unique<EchoClient>(net::SockAddr{vip(1), 5000}, 100));
  cl_.run_for(50 * sim::kMillisecond);

  // Verify the child is queued un-accepted.
  bool pending = false;
  for (net::SockId sid : sp.stack().all_socket_ids()) {
    net::TcpSocket* t = sp.stack().find_tcp(sid);
    if (t != nullptr && t->is_listener() && t->accept_queue_len() == 1) {
      pending = true;
    }
  }
  ASSERT_TRUE(pending);

  auto cr = checkpoint({
      {agents_[0]->addr(), "lsn-pod", "san://ckpt/l"},
      {agents_[1]->addr(), "conn-pod", "san://ckpt/c"},
  });
  ASSERT_TRUE(cr.ok) << cr.error;
  ASSERT_TRUE(agents_[0]->destroy_pod("lsn-pod").is_ok());
  ASSERT_TRUE(agents_[1]->destroy_pod("conn-pod").is_ok());
  auto rr = restart({
      {agents_[2]->addr(), "lsn-pod", "san://ckpt/l"},
      {agents_[3]->addr(), "conn-pod", "san://ckpt/c"},
  });
  ASSERT_TRUE(rr.ok) << rr.error;

  pod::Pod* restored = agents_[2]->find_pod("lsn-pod");
  ASSERT_NE(restored, nullptr);
  bool requeued = false;
  for (net::SockId sid : restored->stack().all_socket_ids()) {
    net::TcpSocket* t = restored->stack().find_tcp(sid);
    if (t != nullptr && t->is_listener() && t->accept_queue_len() == 1) {
      requeued = true;
    }
  }
  EXPECT_TRUE(requeued);
}

TEST_F(CornerTest, TimeVirtualizationAcrossRestart) {
  pod::Pod& sp = agents_[0]->create_pod(vip(1), "timer-pod");
  os::ProgramRegistry::instance().add("test.stamper", [] {
    return std::make_unique<Stamper>();
  });
  i32 pid = sp.spawn(std::make_unique<Stamper>());

  cl_.run_for(2 * sim::kMillisecond);  // first stamp taken, now sleeping
  auto cr = checkpoint({{agents_[0]->addr(), "timer-pod", "san://ckpt/t"}},
                       CkptMode::MIGRATE);
  ASSERT_TRUE(cr.ok) << cr.error;

  cl_.run_for(60 * sim::kSecond);  // long downtime before the restart
  auto rr = restart({{agents_[1]->addr(), "timer-pod", "san://ckpt/t"}});
  ASSERT_TRUE(rr.ok) << rr.error;
  cl_.run_for(2 * sim::kSecond);

  pod::Pod* restored = agents_[1]->find_pod("timer-pod");
  os::Process* p = restored->find_process(pid);
  ASSERT_EQ(p->state(), os::ProcState::EXITED);
  const Bytes stamps = p->regions().at("stamps").to_bytes();
  Decoder d(stamps);
  u64 before = d.u64_().value();
  u64 after = d.u64_().value();
  // The pod-visible clock never exposes the 60-second downtime: the
  // second stamp is just the sleep (plus scheduling slack) after the
  // first.
  EXPECT_GE(after, before + 5000);
  EXPECT_LT(after - before, sim::kSecond);
}

}  // namespace
}  // namespace zapc::core
