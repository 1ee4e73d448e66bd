// train_kaist: rl::IppoTrainer::Train() of GARL on the KAIST campus
// (B=150 stops, U=4, V'=2, T=100, 4 episodes per iteration, TrainConfig
// defaults otherwise), writing a checkpoint and a run-log record every
// iteration. Most of an iteration is the PPO update (forward with grad,
// Backward, ClipGradNorm, Adam::Step), so this is where autograd, optimizer
// and arena changes show; it is also the checkpoint write path.

#include <cmath>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "common/fs_util.h"
#include "env/campus_factory.h"
#include "nn/arena.h"
#include "rl/checkpoint.h"
#include "rl/ippo_trainer.h"
#include "workloads.h"

namespace perfbench {

namespace env = garl::env;
namespace rl = garl::rl;
using garl::Rng;

namespace {

constexpr int64_t kEpisodesPerIteration = 4;
constexpr int64_t kHorizon = 100;

// World, context and policy, heap-pinned: the policy keeps a pointer to the
// context.
struct Stack {
  std::unique_ptr<env::World> world;
  rl::EnvContext context;
  std::unique_ptr<rl::UgvPolicyNetwork> policy;
  std::unique_ptr<rl::IppoTrainer> trainer;
};

rl::TrainConfig MakeConfig(uint64_t seed, int64_t iterations,
                           const std::string& dir) {
  garl::WarnIfError(garl::EnsureDirectory(dir), "perfbench: mkdir " + dir);
  rl::TrainConfig config;
  config.iterations = iterations;
  config.episodes_per_iteration = kEpisodesPerIteration;
  config.seed = seed;
  config.checkpoint_dir = dir + "/ckpt";
  config.run_log_path = dir + "/run_log.jsonl";
  return config;
}

std::unique_ptr<Stack> MakeStack(uint64_t policy_seed) {
  auto stack = std::make_unique<Stack>();
  env::WorldParams params;
  params.num_ugvs = 4;
  params.uavs_per_ugv = 2;
  params.horizon = kHorizon;
  stack->world = std::make_unique<env::World>(env::MakeKaistCampus(), params);
  stack->context = rl::MakeEnvContext(*stack->world);
  Rng rng(policy_seed);
  auto policy = garl::baselines::MakeUgvPolicy(
      "GARL", stack->context, garl::baselines::MethodOptions(), rng);
  if (!policy.ok()) return nullptr;
  stack->policy = std::move(policy).value();
  return stack;
}

bool InUnit(double x) { return std::isfinite(x) && x >= 0.0 && x <= 1.0; }

// Output checks on one iteration's statistics.
void CheckIteration(const rl::IterationStats& s, int64_t m, Report* report) {
  const std::string at = "iteration " + std::to_string(m);
  report->Check(std::isfinite(s.policy_loss) && std::isfinite(s.value_loss) &&
                    std::isfinite(s.entropy) && std::isfinite(s.ugv_grad_norm),
                at + ": non-finite loss or grad norm");
  report->Check(InUnit(s.metrics.data_collection_ratio) &&
                    InUnit(s.metrics.fairness) &&
                    InUnit(s.metrics.cooperation_factor) &&
                    InUnit(s.metrics.energy_ratio),
                at + ": psi/xi/zeta/beta outside [0,1]");
}

int64_t CountLines(const std::string& path) {
  std::ifstream in(path);
  int64_t lines = 0;
  std::string line;
  while (std::getline(in, line)) ++lines;
  return lines;
}

}  // namespace

int RunTrainKaist(const Args& args, Report* report) {
  const std::string& w = args.workload;
  Phase(w, "setup");
  // Set-up is world + context + policy + trainer construction, repeated so
  // its median is steady; the first two stacks are kept.
  std::vector<std::unique_ptr<Stack>> stacks;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double start = NowS();
    std::unique_ptr<Stack> stack =
        MakeStack(Rng::StreamSeed(args.seed, 10 + static_cast<uint64_t>(rep)));
    if (stack == nullptr) {
      std::fprintf(stderr, "perfbench: GARL policy construction failed\n");
      return 1;
    }
    stack->trainer = std::make_unique<rl::IppoTrainer>(
        stack->world.get(), stack->policy.get(), nullptr,
        MakeConfig(Rng::StreamSeed(args.seed, 1), 1,
                   args.scratch + "/warmup"));
    setup_s.push_back(NowS() - start);
    if (stacks.size() < 2) stacks.push_back(std::move(stack));
  }
  report->Metric("setup_s", Median(setup_s), "s",
                 "world + context + policy + trainer, median of " +
                     std::to_string(kSetupReps));

  // Warm-up: one full iteration (collect, update, run log, checkpoint).
  Phase(w, "warmup");
  const double warm_start = NowS();
  auto warm = stacks[0]->trainer->Train();
  const double warm_s = NowS() - warm_start;
  report->Check(warm.ok(), "warm-up Train(): " + warm.status().ToString());
  if (!warm.ok()) return 1;
  for (const rl::IterationStats& s : warm.value()) {
    CheckIteration(s, -1, report);
  }

  // Measured run, sized from the warm-up iteration to fill --seconds.
  const int64_t iterations = std::clamp<int64_t>(
      static_cast<int64_t>(std::ceil(args.seconds / std::max(warm_s, 1e-3))), 3,
      100);
  const std::string dir = args.scratch + "/measured";
  rl::TrainConfig config =
      MakeConfig(Rng::StreamSeed(args.seed, 2), iterations, dir);
  std::vector<double> stamps;
  std::vector<int64_t> heap_allocs;
  double trace_cost_s = 0.0;
  config.iteration_callback = [&](int64_t) {
    stamps.push_back(NowS());
    if (args.trace) {
      heap_allocs.push_back(garl::nn::arena::GlobalStats().heap_allocs);
      trace_cost_s += NowS() - stamps.back();
    }
  };
  Stack& stack = *stacks[1];
  stack.trainer = std::make_unique<rl::IppoTrainer>(
      stack.world.get(), stack.policy.get(), nullptr, config);

  Phase(w, "measure");
  double t0 = NowS();
  const std::vector<garl::obs::SpanStats> spans_before =
      garl::obs::TraceCollector::Global().Snapshot();
  trace_cost_s += NowS() - t0;
  const double train_start = NowS();
  auto trained = stack.trainer->Train();
  const double train_end = NowS();
  t0 = NowS();
  const std::vector<garl::obs::SpanStats> spans_after =
      garl::obs::TraceCollector::Global().Snapshot();
  trace_cost_s += NowS() - t0;

  Phase(w, "check");
  report->Check(trained.ok(), "Train(): " + trained.status().ToString());
  if (!trained.ok()) return 1;
  const std::vector<rl::IterationStats>& history = trained.value();
  report->Check(static_cast<int64_t>(history.size()) == iterations,
                "Train() returned the wrong number of iterations");
  for (size_t m = 0; m < history.size(); ++m) {
    CheckIteration(history[m], static_cast<int64_t>(m), report);
  }
  report->Check(CountLines(config.run_log_path) == iterations,
                "run log does not hold one record per iteration");
  auto latest = rl::LatestCheckpoint(config.checkpoint_dir);
  report->Check(latest.ok() && latest.value().episode ==
                                   iterations * kEpisodesPerIteration,
                "newest checkpoint is not the last iteration's");

  std::vector<double> iteration_s;
  double previous = train_start;
  for (double stamp : stamps) {
    iteration_s.push_back(stamp - previous);
    previous = stamp;
  }
  const double measured_s = train_end - train_start;
  report->Metric("step_s", Median(iteration_s), "s",
                 "train_iter_s: median of " +
                     std::to_string(iteration_s.size()) + " iterations (" +
                     Quartiles(iteration_s) + ")");

  if (args.trace) {
    Phase(w, "trace");
    const SpanDelta collect =
        SpanBetween(spans_before, spans_after, "trainer/collect");
    const SpanDelta update =
        SpanBetween(spans_before, spans_after, "trainer/update_ugv");
    const SpanDelta save =
        SpanBetween(spans_before, spans_after, "checkpoint/save");
    const SpanDelta episode =
        SpanBetween(spans_before, spans_after, "trainer/episode");
    const double n = static_cast<double>(iterations);
    report->Metric("rl.collect_s", collect.total_s / n, "s",
                   "trainer/collect span, per iteration");
    report->Metric("rl.update_s", update.total_s / n, "s",
                   "trainer/update_ugv span, per iteration");
    report->Metric("rl.checkpoint_save_ms",
                   save.count > 0 ? save.total_s * 1e3 / save.count : 0.0,
                   "ms", "checkpoint/save span, per save");
    report->Metric("rl.episode_s",
                   episode.count > 0 ? episode.total_s / episode.count : 0.0,
                   "s", "trainer/episode span, per episode");
    report->Metric("trace.coverage_frac",
                   (collect.total_s + update.total_s + save.total_s) /
                       measured_s,
                   "ratio", "collect + update + checkpoint over Train() wall");
    report->Metric("trace.overhead_frac", trace_cost_s / measured_s, "ratio",
                   "benchmark tracing work over Train() wall");
    if (heap_allocs.size() >= 2) {
      report->Metric("nn.arena_heap_allocs_per_iter",
                     static_cast<double>(heap_allocs.back() -
                                         heap_allocs.front()) /
                         static_cast<double>(heap_allocs.size() - 1),
                     "count", "arena heap allocations, steady iterations");
    }
    report->Metric(
        "nn.arena_high_water_mb",
        static_cast<double>(garl::nn::arena::GlobalStats().high_water_bytes) /
            1e6,
        "MB");

    // Layer probes on the trained policy, timed around public calls.
    Phase(w, "probe");
    garl::rl::GreedyUavController uav;
    TimedEpisode probe_episode =
        RunTimedEpisode(*stack.world, *stack.policy, uav,
                        Rng::StreamSeed(args.seed, 3), 0,
                        /*greedy=*/false);
    ReportEpisodeLayers(probe_episode, report);
    ForwardProbe forward = ProbeForward(*stack.policy, probe_episode.requests);
    report->Metric("policy.fwd_nograd_ms", forward.fwd_nograd_ms, "ms",
                   "Forward under NoGradGuard, per joint request (KAIST)");
    report->Metric("core.extract_ms", forward.extract_ms, "ms");
    report->Metric("core.priors_ms", forward.priors_ms, "ms");
    UpdateProbe update_probe =
        ProbeUpdate(*stack.policy, stack.context, probe_episode.requests,
                    Rng::StreamSeed(args.seed, 4));
    report->Metric("nn.fwd_grad_ms", update_probe.fwd_grad_ms, "ms",
                   "Forward with grad, one slot");
    report->Metric("nn.backward_ms", update_probe.backward_ms, "ms",
                   "Backward of an 8-slot minibatch");
    report->Metric("nn.adam_step_ms", update_probe.adam_step_ms, "ms",
                   "ClipGradNorm + Adam::Step");
    report->Metric("nn.matmul_gflops_laplacian", update_probe.matmul_gflops,
                   "GFLOP/s",
                   "[B,B]x[B,64] forward + backward, FLOPs from shape");
  }
  return 0;
}

}  // namespace perfbench
