// Double-buffered image storage (DESIGN.md §8.2): a checkpoint (blocking
// or COW drain) that overwrites a SAN path encodes into the buffer the
// path's previous commit displaced, without touching the committed
// image, and falls back to one exact fresh buffer whenever that spare
// does not fit.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>

#include "ckpt/image.h"
#include "core/agent.h"
#include "core/manager.h"
#include "fault/fault.h"
#include "os/cluster.h"
#include "pod/pod.h"
#include "tests/guest_programs.h"
#include "tests/helpers.h"

namespace zapc::core {
namespace {

constexpr const char* kPath = "spare/job";
constexpr std::size_t kHeap = 1 << 20;

class ImageSpareTest : public ::testing::Test {
 protected:
  ImageSpareTest() {
    fault::injector().clear();
    mgr_ = std::make_unique<Manager>(cl_.add_node("mgr"));
    agent_ = std::make_unique<Agent>(cl_.add_node("n1"));
    pod::Pod& pod = agent_->create_pod(net::IpAddr(10, 79, 0, 1), "job");
    pid_ = pod.spawn(std::make_unique<test::CounterProgram>(1000000, 1000));
    region("heap", kHeap) = test::pattern_bytes(kHeap, 3);
    cl_.run_for(10 * sim::kMillisecond);
  }

  ~ImageSpareTest() override { fault::injector().clear(); }

  Bytes& region(const std::string& name, std::size_t size) {
    return agent_->find_pod("job")->find_process(pid_)->region(name, size);
  }

  /// One SNAPSHOT of the pod to san://spare/job: blocking, or with `cow`
  /// a COW checkpoint whose report arrives once its drain committed.
  Manager::CheckpointReport ckpt(bool cow = false) {
    Manager::CkptOptions opts;
    opts.codec_flags = ckpt::kCodecZeroElide;
    opts.cow = cow;
    Manager::CheckpointReport out;
    bool done = false;
    mgr_->checkpoint({{agent_->addr(), "job", std::string("san://") + kPath}},
                     CkptMode::SNAPSHOT,
                     [&](Manager::CheckpointReport r) {
                       out = std::move(r);
                       done = true;
                     },
                     opts);
    for (int i = 0; i < 20000 && !done; ++i) cl_.run_for(sim::kMillisecond);
    EXPECT_TRUE(done);
    cl_.run_for(5 * sim::kMillisecond);
    return out;
  }

  const Bytes& committed() { return *cl_.san().view(kPath).value(); }

  void arm(fault::FaultKind kind) {
    fault::FaultSpec s;
    s.kind = kind;
    s.san_prefix = "spare/";
    s.short_bytes = 128;
    fault::injector().arm(s);
  }

  /// Three checkpoints to one path: the third is encoded into the
  /// storage of the first, which the second's commit displaced.
  void expect_third_generation_in_first_generations_storage(bool cow) {
    ASSERT_TRUE(ckpt(cow).ok);
    const u8* gen1 = committed().data();
    const std::size_t size = committed().size();
    ASSERT_TRUE(ckpt(cow).ok);  // displaces gen1: now the path's spare
    EXPECT_NE(committed().data(), gen1);
    // Hold an allocation of the image's size, so that had gen1's storage
    // been freed the next fresh encode could not land on it by chance.
    Bytes blocker;
    blocker.reserve(size);

    auto third = ckpt(cow);
    ASSERT_TRUE(third.ok) << third.error;
    const Bytes& image = committed();
    EXPECT_EQ(image.data(), gen1);
    EXPECT_EQ(image.size(), third.max_image_bytes);
    // The reused storage holds exactly what a fresh encode writes.
    auto decoded = ckpt::decode_image(image);
    ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
    const Bytes fresh = ckpt::encode_image(decoded.value());
    ASSERT_EQ(fresh.size(), image.size());
    EXPECT_EQ(std::memcmp(fresh.data(), image.data(), image.size()), 0);
  }

  os::Cluster cl_;
  std::unique_ptr<Manager> mgr_;
  std::unique_ptr<Agent> agent_;
  i32 pid_ = 0;
};

TEST_F(ImageSpareTest, ThirdCheckpointWritesIntoFirstGenerationsStorage) {
  expect_third_generation_in_first_generations_storage(/*cow=*/false);
}

TEST_F(ImageSpareTest, CowDrainWritesIntoTheSpareToo) {
  expect_third_generation_in_first_generations_storage(/*cow=*/true);
}

TEST_F(ImageSpareTest, AbortAfterEncodeLeavesCommittedImageIntact) {
  ASSERT_TRUE(ckpt().ok);
  ASSERT_TRUE(ckpt().ok);  // the path now has a spare
  const Bytes before = committed();

  // The op encodes into the spare, then its staged write fails.
  arm(fault::FaultKind::SAN_WRITE_FAIL);
  EXPECT_FALSE(ckpt().ok);
  fault::injector().clear();
  EXPECT_EQ(committed(), before);
  EXPECT_EQ(cl_.san().object_count(), 1u);

  // The aborted op freed the spare with its staged image: the next
  // checkpoint commits from one fresh exact buffer.
  ASSERT_TRUE(ckpt().ok);
  EXPECT_EQ(committed().capacity(), committed().size());
}

TEST_F(ImageSpareTest, SpareThatDoesNotFitIsReplacedByExactBuffer) {
  ASSERT_TRUE(ckpt().ok);
  ASSERT_TRUE(ckpt().ok);  // the spare is one image of the first size

  // Grown past the spare's capacity: writing into it would grow it.
  region("extra", 64 << 10) = test::pattern_bytes(64 << 10, 4);
  ASSERT_TRUE(ckpt().ok);
  EXPECT_EQ(committed().capacity(), committed().size());

  // Shrunk below half the spare's capacity (zero regions elide to their
  // size): keeping it would pin memory the image does not need.
  region("heap", kHeap).assign(kHeap, 0);
  region("extra", 64 << 10).assign(64 << 10, 0);
  ASSERT_TRUE(ckpt().ok);
  EXPECT_LT(2 * committed().size(), kHeap);
  EXPECT_EQ(committed().capacity(), committed().size());
}

TEST_F(ImageSpareTest, TornWriteIntoSpareStillFailsVerification) {
  ASSERT_TRUE(ckpt().ok);
  ASSERT_TRUE(ckpt().ok);  // the path now has a spare
  const Bytes before = committed();

  arm(fault::FaultKind::SAN_SHORT_WRITE);
  EXPECT_FALSE(ckpt().ok);
  fault::injector().clear();
  EXPECT_EQ(committed(), before);
  EXPECT_EQ(cl_.san().list("spare/").size(), 1u);  // staged object GC'd
}

}  // namespace
}  // namespace zapc::core
