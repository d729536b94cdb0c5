// Cross-module integration tests: every application on several cluster
// shapes, home-opt variants, the full 32-processor configuration, and
// statistics sanity relative to the paper's qualitative claims.
#include <gtest/gtest.h>

#include <algorithm>

#include "cashmere/apps/app.hpp"

namespace cashmere {
namespace {

Config ShapeConfig(ProtocolVariant v, int nodes, int ppn) {
  Config cfg;
  cfg.protocol = v;
  cfg.nodes = nodes;
  cfg.procs_per_node = ppn;
  cfg.cost.time_scale = 5.0;
  return cfg;
}

TEST(IntegrationTest, AllAppsAtFullScaleTwoLevel) {
  for (int a = 0; a < kNumApps; ++a) {
    const AppRunResult r = RunApp(static_cast<AppKind>(a),
                                  ShapeConfig(ProtocolVariant::kTwoLevel, 8, 4), kSizeTest);
    EXPECT_TRUE(r.verified) << AppName(static_cast<AppKind>(a));
    EXPECT_GT(r.speedup, 0.0);
  }
}

TEST(IntegrationTest, AllAppsAtFullScaleOneLevelDiff) {
  for (int a = 0; a < kNumApps; ++a) {
    const AppRunResult r = RunApp(static_cast<AppKind>(a),
                                  ShapeConfig(ProtocolVariant::kOneLevelDiff, 8, 4), kSizeTest);
    EXPECT_TRUE(r.verified) << AppName(static_cast<AppKind>(a));
  }
}

TEST(IntegrationTest, PaperClusterConfigurations) {
  // The paper's Figure 7 configurations (scaled down to the test size).
  struct Shape {
    int nodes;
    int ppn;
  };
  const Shape shapes[] = {{4, 1}, {1, 4}, {8, 1}, {4, 2}, {2, 4}, {8, 2}, {4, 4}, {8, 3}, {8, 4}};
  for (const Shape& s : shapes) {
    const AppRunResult r =
        RunApp(AppKind::kSor, ShapeConfig(ProtocolVariant::kTwoLevel, s.nodes, s.ppn), kSizeTest);
    EXPECT_TRUE(r.verified) << s.nodes << "x" << s.ppn;
  }
}

TEST(IntegrationTest, HomeOptVariantsVerify) {
  for (const auto v :
       {ProtocolVariant::kOneLevelDiff, ProtocolVariant::kOneLevelWriteDouble}) {
    Config cfg = ShapeConfig(v, 4, 2);
    cfg.home_opt = true;
    for (const AppKind kind : {AppKind::kSor, AppKind::kEm3d, AppKind::kGauss}) {
      const AppRunResult r = RunApp(kind, cfg, kSizeTest);
      EXPECT_TRUE(r.verified) << AppName(kind) << " home-opt " << ProtocolVariantName(v);
    }
  }
}

TEST(IntegrationTest, InterruptModeVerifies) {
  Config cfg = ShapeConfig(ProtocolVariant::kTwoLevelShootdown, 4, 2);
  cfg.delivery = DeliveryMode::kInterrupt;
  const AppRunResult r = RunApp(AppKind::kWater, cfg, kSizeTest);
  EXPECT_TRUE(r.verified);
}

TEST(IntegrationTest, TwoLevelReducesDataVsOneLevel) {
  // The paper's central claim: two-level protocols coalesce intra-node
  // requests, cutting page transfers and data moved relative to 1LD on the
  // same hardware (Table 3: 2-8x for most applications).
  const AppRunResult two = RunApp(
      AppKind::kSor, ShapeConfig(ProtocolVariant::kTwoLevel, 8, 4), kSizeTest);
  const AppRunResult one = RunApp(
      AppKind::kSor, ShapeConfig(ProtocolVariant::kOneLevelDiff, 8, 4), kSizeTest);
  ASSERT_TRUE(two.verified);
  ASSERT_TRUE(one.verified);
  EXPECT_LT(two.report.total.Get(Counter::kPageTransfers),
            one.report.total.Get(Counter::kPageTransfers));
  EXPECT_LT(two.report.total.Get(Counter::kDataBytes),
            one.report.total.Get(Counter::kDataBytes));
}

TEST(IntegrationTest, SequentialBaselineIsDeterministic) {
  double c1 = 0.0;
  double c2 = 0.0;
  SequentialBaseline(AppKind::kLu, kSizeTest, nullptr, nullptr, &c1);
  SequentialBaseline(AppKind::kLu, kSizeTest, nullptr, nullptr, &c2);
  EXPECT_EQ(c1, c2);
}

// AutoCostScale reads its data volume from one Run, without RunApp's
// dilation rerun, which rescales time and no counter; so its scale must
// match the one computed from the counted RunApp run of the same 2L 32:4
// experiment. On an idle host the two agree exactly. Under load they need
// not, because first-touch home placement follows the thread schedule
// (with the host oversubscribed eightfold the two scales stayed within
// 0.8-1.26 of each other). The bound still catches a probe that ran a
// one-level protocol, a 16:4 cluster or another size class.
TEST(IntegrationTest, CostScaleProbeMatchesCountedRun) {
  Config cfg;
  cfg.protocol = ProtocolVariant::kTwoLevel;
  cfg.nodes = 8;
  cfg.procs_per_node = 4;
  const AppRunResult r = RunApp(AppKind::kEm3d, cfg, kSizeTest);
  ASSERT_TRUE(r.verified);
  const auto app = MakeApp(AppKind::kEm3d, kSizeTest);
  const double mbytes =
      static_cast<double>(r.report.total.Get(Counter::kDataBytes)) / (1024.0 * 1024.0);
  const double s = r.seq_alpha_seconds / app->PaperSeqSeconds();
  const double v = mbytes / app->PaperDataMbytes32();
  EXPECT_NEAR(AutoCostScale(AppKind::kEm3d, kSizeTest) / std::clamp(s / v, 1e-4, 1.0), 1.0,
              0.5);
}

// Large Gauss at 32:4 under 2L (asynchronous release, the default): several
// writers of one node share each page while the other nodes break its
// exclusive mode and fetch it. A node's last writes must reach the home
// before its readers' gate opens: a break images the page only after the
// holder stops writing, a fetch never merges an image older than a local
// flush, and a release gates its readers on the log records that carry its
// writes. Any lost update shows as a wrong checksum.
TEST(IntegrationTest, LargeGaussTwoLevelVerifies) {
  Config cfg;
  cfg.protocol = ProtocolVariant::kTwoLevel;
  cfg.nodes = 8;
  cfg.procs_per_node = 4;
  cfg.cost.scale = 1.0;
  for (int rep = 0; rep < 2; ++rep) {
    const AppRunResult r = RunApp(AppKind::kGauss, cfg, kSizeLarge);
    EXPECT_TRUE(r.verified) << "rep " << rep;
  }
}

TEST(IntegrationTest, StatisticsScaleWithSharing) {
  // Em3d's neighbour sharing at 8 nodes produces substantially more write
  // notices than at 2 nodes (more cross-unit boundaries).
  const AppRunResult small = RunApp(
      AppKind::kEm3d, ShapeConfig(ProtocolVariant::kTwoLevel, 2, 1), kSizeTest);
  const AppRunResult large = RunApp(
      AppKind::kEm3d, ShapeConfig(ProtocolVariant::kTwoLevel, 8, 1), kSizeTest);
  ASSERT_TRUE(small.verified);
  ASSERT_TRUE(large.verified);
  EXPECT_GT(large.report.total.Get(Counter::kWriteNotices),
            small.report.total.Get(Counter::kWriteNotices));
}

}  // namespace
}  // namespace cashmere
