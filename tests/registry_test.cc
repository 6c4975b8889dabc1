#include "estimators/registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/scenario.h"
#include "estimators/chao92.h"
#include "estimators/switch_total.h"

namespace dqm::estimators {
namespace {

TEST(ParseEstimatorSpecTest, NameOnly) {
  Result<EstimatorSpec> spec = ParseEstimatorSpec("switch");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->name, "switch");
  EXPECT_TRUE(spec->params.empty());
  EXPECT_EQ(spec->ToString(), "switch");
}

TEST(ParseEstimatorSpecTest, ParamsAndCaseFolding) {
  Result<EstimatorSpec> spec =
      ParseEstimatorSpec("  VChao92?Shift=2&SKEW=true ");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->name, "vchao92");
  ASSERT_EQ(spec->params.size(), 2u);
  EXPECT_EQ(spec->params[0].first, "shift");
  EXPECT_EQ(spec->params[0].second, "2");
  EXPECT_EQ(spec->params[1].first, "skew");
  // Values keep their spelling (only keys/names fold).
  EXPECT_EQ(spec->params[1].second, "true");
  EXPECT_EQ(spec->ToString(), "vchao92?shift=2&skew=true");
}

TEST(ParseEstimatorSpecTest, Rejections) {
  EXPECT_EQ(ParseEstimatorSpec("").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseEstimatorSpec("?shift=2").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseEstimatorSpec("switch?tau").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseEstimatorSpec("switch?=5").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseEstimatorSpec("switch?tau=5&tau=9").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SplitSpecListTest, SplitsAndTrims) {
  EXPECT_EQ(SplitSpecList("switch, vchao92?shift=2 ,,voting"),
            (std::vector<std::string>{"switch", "vchao92?shift=2", "voting"}));
  EXPECT_TRUE(SplitSpecList(" , ").empty());
}

TEST(EstimatorRegistryTest, RoundTripsEveryBuiltinName) {
  // spec string -> factory -> estimator -> display name, for every
  // registered estimator.
  const std::map<std::string, std::string> expected_display = {
      {"switch", "SWITCH"},         {"chao92", "CHAO92"},
      {"good-turing", "GOOD-TURING"}, {"vchao92", "V-CHAO"},
      {"voting", "VOTING"},         {"nominal", "NOMINAL"},
      {"chao1", "CHAO1"},           {"jackknife1", "JACKKNIFE1"},
      {"em-voting", "EM-VOTING"},
  };
  EstimatorRegistry& registry = EstimatorRegistry::Global();
  std::vector<std::string> names = registry.Names();
  EXPECT_EQ(names.size(), expected_display.size());
  for (const std::string& name : names) {
    ASSERT_TRUE(expected_display.contains(name)) << name;
    Result<std::unique_ptr<TotalErrorEstimator>> estimator =
        registry.Create(name, 20);
    ASSERT_TRUE(estimator.ok()) << estimator.status().ToString();
    EXPECT_EQ((*estimator)->name(), expected_display.at(name)) << name;
    // The FactoryFor bridge produces the same estimator.
    Result<EstimatorFactory> factory = registry.FactoryFor(name);
    ASSERT_TRUE(factory.ok()) << factory.status().ToString();
    EXPECT_EQ((*factory)(20)->name(), expected_display.at(name)) << name;
  }
}

TEST(EstimatorRegistryTest, AliasesResolveToCanonicalEntries) {
  EstimatorRegistry& registry = EstimatorRegistry::Global();
  EXPECT_TRUE(registry.Contains("goodturing"));
  EXPECT_TRUE(registry.Contains("v-chao"));
  EXPECT_TRUE(registry.Contains("jackknife"));
  EXPECT_EQ((*registry.Create("goodturing", 10))->name(), "GOOD-TURING");
  // Aliases are reachable but not listed twice.
  std::vector<std::string> names = registry.Names();
  EXPECT_EQ(std::count(names.begin(), names.end(), "goodturing"), 0);
}

TEST(EstimatorRegistryTest, UnknownNameIsNotFound) {
  Result<std::unique_ptr<TotalErrorEstimator>> estimator =
      EstimatorRegistry::Global().Create("chao93", 10);
  EXPECT_EQ(estimator.status().code(), StatusCode::kNotFound);
  // The message lists what *is* registered, for discoverability.
  EXPECT_NE(estimator.status().message().find("switch"), std::string::npos);
}

TEST(EstimatorRegistryTest, UnknownAndMalformedParamsAreInvalidArgument) {
  EstimatorRegistry& registry = EstimatorRegistry::Global();
  EXPECT_EQ(registry.Create("switch?winow=9", 10).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Create("voting?shift=1", 10).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Create("vchao92?shift=-1", 10).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Create("vchao92?shift=two", 10).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Create("switch?two_sided=perhaps", 10).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Create("switch?tie_policy=bogus", 10).status().code(),
            StatusCode::kInvalidArgument);
  // tau is an alias of trend_window; setting both is ambiguous.
  EXPECT_EQ(registry.Create("switch?tau=5&trend_window=9", 10).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(registry.Create("switch?tau=5", 10).ok());
  // FactoryFor validates eagerly, not at first construction.
  EXPECT_EQ(registry.FactoryFor("switch?winow=9").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.FactoryFor("chao93").status().code(),
            StatusCode::kNotFound);
}

TEST(EstimatorRegistryTest, SpecParamsConfigureTheEstimator) {
  // A spec's params must configure the estimator exactly like its
  // constructor does: equal estimates after every vote of a real stream.
  // The switch spec sets every switch param.
  SwitchTotalErrorEstimator::Config config;
  config.trend_window = 30;
  config.flip_threshold_abs = 5.0;
  config.flip_threshold_rel = 0.08;
  config.up_flip_factor = 1.5;
  config.smooth_window = 4;
  config.two_sided = true;
  config.tracker.skew_correction = false;
  config.tracker.tie_policy = TiePolicy::kStrictMajority;
  config.tracker.n_mode = SwitchNMode::kSpeciesSum;
  config.tracker.counting = SwitchCountingMode::kPerRecord;
  config.tracker.memory = SwitchMemory::kAllSwitches;

  core::Scenario scenario = core::SimulationScenario(0.02, 0.12, 10);
  scenario.workers.variation = 0.02;
  core::SimulatedRun run = core::SimulateScenario(scenario, 120, 37);
  const size_t num_items = run.truth.size();

  struct Case {
    std::string spec;
    std::unique_ptr<TotalErrorEstimator> direct;
  };
  std::vector<Case> cases;
  cases.push_back(
      {"vchao92?shift=2", std::make_unique<VChao92Estimator>(num_items, 2)});
  cases.push_back(
      {"switch?tau=30&flip_abs=5&flip_rel=0.08&up_flip_factor=1.5"
       "&smooth_window=4&two_sided=1&skew=0&tie_policy=strict"
       "&n_mode=species&counting=per-record&memory=all",
       std::make_unique<SwitchTotalErrorEstimator>(num_items, config)});
  for (Case& c : cases) {
    std::unique_ptr<TotalErrorEstimator> by_spec =
        EstimatorRegistry::Global().Create(c.spec, num_items).value();
    for (const crowd::VoteEvent& event : run.log.events()) {
      by_spec->Observe(event);
      c.direct->Observe(event);
      ASSERT_EQ(by_spec->Estimate(), c.direct->Estimate()) << c.spec;
    }
  }
}

/// A user-provided estimator: the registry is open, not a baked-in list.
class ConstantEstimator : public TotalErrorEstimator {
 public:
  explicit ConstantEstimator(double value) : value_(value) {}
  void Observe(const crowd::VoteEvent&) override {}
  double Estimate() const override { return value_; }
  std::string_view name() const override { return "CONSTANT"; }

 private:
  double value_;
};

TEST(EstimatorRegistryTest, OpenForUserEstimators) {
  EstimatorRegistry registry;
  Status status = registry.Register(EstimatorRegistry::Entry{
      .name = "constant",
      .display_name = "CONSTANT",
      .help = "fixed answer; params: value=<float>",
      .factory = [](const EstimatorEnv&, const EstimatorSpec& spec)
          -> Result<std::unique_ptr<TotalErrorEstimator>> {
        SpecParamReader params(spec);
        DQM_ASSIGN_OR_RETURN(double value, params.GetDouble("value", 0.0));
        DQM_RETURN_NOT_OK(params.VerifyAllConsumed());
        return std::unique_ptr<TotalErrorEstimator>(
            std::make_unique<ConstantEstimator>(value));
      }});
  ASSERT_TRUE(status.ok()) << status.ToString();

  EXPECT_EQ((*registry.Create("constant?value=42", 10))->Estimate(), 42.0);
  // Duplicate registrations and aliases to nowhere are rejected.
  EXPECT_EQ(registry
                .Register(EstimatorRegistry::Entry{
                    .name = "constant",
                    .factory = [](const EstimatorEnv&, const EstimatorSpec&)
                        -> Result<std::unique_ptr<TotalErrorEstimator>> {
                      return Status::Internal("unreachable");
                    }})
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(registry.RegisterAlias("c", "missing").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(registry.Register(EstimatorRegistry::Entry{}).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dqm::estimators
