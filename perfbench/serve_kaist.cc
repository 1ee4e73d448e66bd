// serve_kaist: a serve::PolicyServer over a ServingPlan compiled from a
// KAIST-shaped GARL checkpoint written in set-up. Requests are joint
// observations from seeded rollouts. Three parts: closed-loop ServeBatch,
// seeded Poisson open-loop Submit at fixed offered rates (plus, traced, a
// rate ladder for the saturation knee), and a Reload() of the checkpoint at
// a fixed cadence from its own thread. This is the only workload that runs
// ServingPlan::Execute and the serve queue; it has no autograd and no env
// inside the timed phases. KAIST scale matters: at 150 stops Execute costs
// milliseconds per request, which a small campus hides.
//
// Threads: this one (generator), a completion collector, the reload thread
// and the server's dispatcher.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "baselines/registry.h"
#include "core/serving_plan.h"
#include "env/campus_factory.h"
#include "latency.h"
#include "rl/feature_policy.h"
#include "rl/inference.h"
#include "rl/ippo_trainer.h"
#include "serve/policy_server.h"
#include "workloads.h"

namespace perfbench {

namespace core = garl::core;
namespace env = garl::env;
namespace rl = garl::rl;
namespace serve = garl::serve;
using garl::Rng;

namespace {

using Request = std::vector<env::UgvObservation>;

// Offered rates (req/s) whose latency is reported, and the ascending ladder
// that finds the saturation knee; it includes the fixed rates. One thread
// executes about 240 req/s at KAIST scale, and the p99 limit is crossed
// well before that.
constexpr double kFixedRates[] = {60.0, 120.0, 180.0};
constexpr double kLadderRates[] = {60.0, 120.0, 150.0, 180.0, 210.0};
constexpr double kP99LimitMs = 50.0;
constexpr double kReloadPeriodS = 2.0;
constexpr int64_t kServeBatch = 32;
constexpr int64_t kPoolEpisodes = 2;

struct Reference {
  std::vector<env::UgvAction> actions;
  std::vector<float> values;
};

bool Matches(const serve::ServeResult& result, const Reference& ref) {
  if (!result.status.ok() || result.actions.size() != ref.actions.size() ||
      result.values.size() != ref.values.size()) {
    return false;
  }
  for (size_t u = 0; u < ref.actions.size(); ++u) {
    if (result.actions[u].release != ref.actions[u].release ||
        result.actions[u].target_stop != ref.actions[u].target_stop) {
      return false;
    }
  }
  return std::memcmp(result.values.data(), ref.values.data(),
                     ref.values.size() * sizeof(float)) == 0;
}

env::WorldParams KaistParams() {
  env::WorldParams params;
  params.num_ugvs = 4;
  params.uavs_per_ugv = 2;
  params.horizon = 100;
  return params;
}

// The serving side: world for the context, a policy to load into, the
// compiled plan and the server. Heap-pinned: the policy and the server hold
// pointers into it.
struct Serving {
  std::unique_ptr<env::World> world;
  rl::EnvContext context;
  std::unique_ptr<rl::UgvPolicyNetwork> policy;
  std::unique_ptr<core::ServingPlan> plan;
  std::unique_ptr<serve::PolicyServer> server;
};

std::unique_ptr<Serving> StartServing(const std::string& checkpoint_dir,
                                      uint64_t init_seed) {
  auto s = std::make_unique<Serving>();
  s->world =
      std::make_unique<env::World>(env::MakeKaistCampus(), KaistParams());
  s->context = rl::MakeEnvContext(*s->world);
  Rng rng(init_seed);
  auto policy = garl::baselines::MakeUgvPolicy(
      "GARL", s->context, garl::baselines::MethodOptions(), rng);
  if (!policy.ok()) return nullptr;
  s->policy = std::move(policy).value();
  if (!rl::LoadPolicyForInference(checkpoint_dir, s->policy.get()).ok()) {
    return nullptr;
  }
  auto* feature = dynamic_cast<rl::FeatureUgvPolicy*>(s->policy.get());
  if (feature == nullptr) return nullptr;
  auto plan = core::ServingPlan::Compile(*feature, s->context);
  if (!plan.ok()) return nullptr;
  s->plan = std::make_unique<core::ServingPlan>(std::move(plan).value());
  serve::PolicyServerOptions options;
  options.reload_policy = feature;
  options.reload_context = &s->context;
  options.probe_request = ObserveAll(*s->world);
  s->server = std::make_unique<serve::PolicyServer>(s->plan.get(), options);
  return s;
}

// Reloads the checkpoint every kReloadPeriodS until stopped; checks that
// each successful Reload raises plan_version by exactly one.
class Reloader {
 public:
  Reloader(serve::PolicyServer* server, std::string checkpoint_dir)
      : server_(server), dir_(std::move(checkpoint_dir)) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~Reloader() { Stop(); }
  Reloader(const Reloader&) = delete;
  Reloader& operator=(const Reloader&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  // Valid after Stop().
  const std::vector<double>& reload_ms() const { return reload_ms_; }
  int64_t version_errors() const { return version_errors_; }
  int64_t failures() const { return failures_; }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!cv_.wait_for(lock, std::chrono::duration<double>(kReloadPeriodS),
                         [this] { return stop_; })) {
      lock.unlock();
      const int64_t before = server_->plan_version();
      const double t0 = NowS();
      const garl::Status status = server_->Reload(dir_);
      reload_ms_.push_back((NowS() - t0) * 1e3);
      if (!status.ok()) {
        ++failures_;
      } else if (server_->plan_version() != before + 1) {
        ++version_errors_;
      }
      lock.lock();
    }
  }

  serve::PolicyServer* server_;
  std::string dir_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<double> reload_ms_;
  int64_t version_errors_ = 0;
  int64_t failures_ = 0;
  std::thread thread_;  // last: starts after the members it uses
};

struct OpenLoop {
  std::vector<double> latency_ms;  // completed OK, from scheduled send
  std::vector<double> late_ms;     // generator lateness per send
  std::vector<double> submit_us;   // Submit() call time (traced)
  std::vector<double> queue_depth; // sampled after each send (traced)
  int64_t sent = 0;
  int64_t completed = 0;
  int64_t failed = 0;      // non-OK status (refused, expired, ...)
  int64_t mismatched = 0;  // OK but not equal to the reference
  int64_t backlog_end = 0;
  double wall_s = 0.0;
  double trace_cost_s = 0.0;
};

// Offers `rate` req/s as a seeded Poisson stream for `duration_s`, then
// waits for every request to complete.
OpenLoop RunOpenLoop(serve::PolicyServer& server,
                     const std::vector<Request>& pool,
                     const std::vector<Reference>& refs, double rate,
                     double duration_s, uint64_t seed, bool trace) {
  OpenLoop out;
  const std::vector<double> schedule =
      PoissonSchedule(seed, rate, duration_s);
  Rng pick(seed ^ 0xA5A5A5A5ull);

  struct InFlight {
    std::future<serve::ServeResult> future;
    double scheduled_s;
    size_t index;
  };
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<InFlight> queue;
  bool done_sending = false;
  std::atomic<int64_t> completed{0};

  std::thread collector([&] {
    for (;;) {
      InFlight item;
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return done_sending || !queue.empty(); });
        if (queue.empty()) return;
        item = std::move(queue.front());
        queue.pop_front();
      }
      serve::ServeResult result = item.future.get();
      const double now = NowS();
      if (!result.status.ok()) {
        ++out.failed;
      } else if (!Matches(result, refs[item.index])) {
        ++out.mismatched;
      } else {
        out.latency_ms.push_back((now - item.scheduled_s) * 1e3);
      }
      completed.fetch_add(1, std::memory_order_relaxed);
    }
  });

  const double start = NowS();
  const auto clock_start = std::chrono::steady_clock::now();
  for (double offset : schedule) {
    std::this_thread::sleep_until(
        clock_start + std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::duration<double>(offset)));
    const size_t index = static_cast<size_t>(pick.UniformInt(
        0, static_cast<int64_t>(pool.size()) - 1));
    const double scheduled = start + offset;
    const double t0 = NowS();
    out.late_ms.push_back((t0 - scheduled) * 1e3);
    std::future<serve::ServeResult> future = server.Submit(pool[index], -1);
    const double t1 = NowS();
    if (trace) {
      out.submit_us.push_back((t1 - t0) * 1e6);
      out.queue_depth.push_back(
          static_cast<double>(server.Health().queue_depth));
      out.trace_cost_s += NowS() - t1;
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      queue.push_back(InFlight{std::move(future), scheduled, index});
    }
    cv.notify_one();
    ++out.sent;
  }
  out.backlog_end = out.sent - completed.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex);
    done_sending = true;
  }
  cv.notify_one();
  collector.join();
  out.completed = completed.load();
  out.wall_s = NowS() - start;
  return out;
}

struct ClosedLoop {
  std::vector<double> decisions_per_s;  // per ServeBatch call
  int64_t requests = 0;
  int64_t mismatches = 0;
};

// Runs `seconds` of closed-loop ServeBatch calls.
ClosedLoop RunClosedLoop(serve::PolicyServer& server,
                         const std::vector<Request>& pool,
                         const std::vector<Reference>& refs, double seconds,
                         uint64_t seed) {
  ClosedLoop out;
  Rng pick(seed);
  std::vector<serve::ServeResult> results;
  const double start = NowS();
  while (NowS() - start < seconds || out.decisions_per_s.size() < 3) {
    std::vector<Request> batch;
    std::vector<size_t> indices;
    for (int64_t i = 0; i < kServeBatch; ++i) {
      indices.push_back(static_cast<size_t>(
          pick.UniformInt(0, static_cast<int64_t>(pool.size()) - 1)));
      batch.push_back(pool[indices.back()]);
    }
    const double t0 = NowS();
    server.ServeBatch(batch, &results);
    const double batch_s = NowS() - t0;
    int64_t decisions = 0;
    for (size_t i = 0; i < results.size(); ++i) {
      if (!Matches(results[i], refs[indices[i]])) ++out.mismatches;
      decisions += static_cast<int64_t>(results[i].actions.size());
    }
    out.requests += static_cast<int64_t>(results.size());
    out.decisions_per_s.push_back(static_cast<double>(decisions) / batch_s);
  }
  return out;
}

}  // namespace

int RunServeKaist(const Args& args, Report* report) {
  const std::string& w = args.workload;
  const std::string checkpoint_dir = args.scratch + "/ckpt";

  Phase(w, "checkpoint");
  {
    // The checkpoint the server loads: an untrained GARL policy's trainer
    // state, written through the trainer's own durable save path.
    env::World world(env::MakeKaistCampus(), KaistParams());
    rl::EnvContext context = rl::MakeEnvContext(world);
    Rng rng(Rng::StreamSeed(args.seed, 1));
    auto policy = garl::baselines::MakeUgvPolicy(
        "GARL", context, garl::baselines::MethodOptions(), rng);
    if (!policy.ok()) return 1;
    rl::IppoTrainer trainer(&world, policy.value().get(), nullptr,
                            rl::TrainConfig{});
    garl::Status saved = trainer.SaveCheckpoint(checkpoint_dir);
    report->Check(saved.ok(), "SaveCheckpoint: " + saved.ToString());
    if (!saved.ok()) return 1;
  }

  Phase(w, "setup");
  // Set-up: world + context + policy, checkpoint load, plan compile and
  // server start, repeated so its median is steady.
  std::unique_ptr<Serving> serving;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double start = NowS();
    std::unique_ptr<Serving> made = StartServing(
        checkpoint_dir,
        Rng::StreamSeed(args.seed, 10 + static_cast<uint64_t>(rep)));
    setup_s.push_back(NowS() - start);
    report->Check(made != nullptr, "load + compile + server start failed");
    if (made == nullptr) return 1;
    if (serving == nullptr) serving = std::move(made);
  }
  report->Metric("setup_s", Median(setup_s), "s",
                 "world + policy + load + compile + server start, median of " +
                     std::to_string(kSetupReps));
  serve::PolicyServer& server = *serving->server;

  Phase(w, "pool");
  // Request pool: joint observations along seeded rollouts with random UGV
  // actions and greedy UAVs.
  std::vector<Request> pool;
  {
    env::World world(env::MakeKaistCampus(), KaistParams());
    Rng rng(Rng::StreamSeed(args.seed, 20));
    rl::GreedyUavController uav;
    for (int64_t e = 0; e < kPoolEpisodes; ++e) {
      world.Reset(
          Rng::StreamSeed(args.seed, 30 + static_cast<uint64_t>(e)));
      while (!world.Done()) {
        pool.push_back(ObserveAll(world));
        std::vector<env::UgvAction> ugv(static_cast<size_t>(world.num_ugvs()));
        for (env::UgvAction& a : ugv) {
          a.release = rng.Uniform(0.0, 1.0) < 0.15;
          a.target_stop = rng.UniformInt(0, serving->context.num_stops - 1);
        }
        std::vector<env::UavAction> uavs(static_cast<size_t>(world.num_uavs()));
        for (int64_t v = 0; v < world.num_uavs(); ++v) {
          if (world.UavAirborne(v)) uavs[v] = uav.Act(world, v, rng);
        }
        world.Step(ugv, uavs);
      }
    }
  }

  // Reference answers: single-threaded Execute of every pool entry.
  std::vector<Reference> refs(pool.size());
  std::vector<double> execute_ms;
  {
    core::ServingWorkspace ws = serving->plan->MakeWorkspace();
    const int passes = args.trace ? 5 : 1;
    for (int pass = 0; pass < passes; ++pass) {
      for (size_t i = 0; i < pool.size(); ++i) {
        std::vector<env::UgvAction> actions;
        const double t0 = NowS();
        garl::Status status = serving->plan->Execute(pool[i], &ws, &actions);
        execute_ms.push_back((NowS() - t0) * 1e3);
        if (pass > 0) continue;
        report->Check(status.ok(), "reference Execute: " + status.ToString());
        refs[i].actions = actions;
        refs[i].values.assign(
            ws.values.begin(),
            ws.values.begin() + static_cast<int64_t>(actions.size()));
      }
    }
  }

  Reloader reloader(&server, checkpoint_dir);

  Phase(w, "closed_loop");
  const ClosedLoop closed = RunClosedLoop(
      server, pool, refs, args.trace ? 3.0 : 0.2 * args.seconds,
      Rng::StreamSeed(args.seed, 40));
  report->CheckMany(closed.requests, closed.mismatches,
                    "ServeBatch result differs from Execute");
  report->Metric("serve_batch_decisions_per_s",
                 Median(closed.decisions_per_s), "decisions/s",
                 "median over " +
                     std::to_string(closed.decisions_per_s.size()) +
                     " batches of " + std::to_string(kServeBatch));

  // Open loop. Untraced, only 60 req/s runs (it gives step_s). Traced, the
  // rate ladder runs in ascending order, each step long enough for a
  // supported p99: the fixed rates always run, the others only until the
  // first step fails.
  OpenLoop all;
  Summary r60_latency;     // the gated figure's run, for trace.coverage_frac
  double r60_submit_ms = 0.0;
  std::vector<LadderStep> steps;
  bool ladder_stopped = false;
  const std::vector<double> rates =
      args.trace ? std::vector<double>(std::begin(kLadderRates),
                                       std::end(kLadderRates))
                 : std::vector<double>{60.0};
  for (double rate : rates) {
    const bool fixed = std::find(std::begin(kFixedRates), std::end(kFixedRates),
                                 rate) != std::end(kFixedRates);
    if (ladder_stopped && !fixed) continue;
    const std::string r = std::to_string(static_cast<int>(rate));
    Phase(w, "open_loop_r" + r);
    // Traced, 1150 arrivals are expected (Poisson, sd 34), so a step has
    // the 1000 samples a p99 needs except with negligible probability.
    const double duration =
        args.trace ? 1.15 * static_cast<double>(LadderMinSamples()) / rate
                   : 0.6 * args.seconds;
    OpenLoop run = RunOpenLoop(
        server, pool, refs, rate, duration,
        Rng::StreamSeed(args.seed, 50 + static_cast<uint64_t>(rate)),
        args.trace);
    // A mismatch is always an output error. A refusal is one only at
    // 60 req/s, far below capacity; higher up it is the server's overload
    // behaviour, which the ladder's stop rule judges.
    report->CheckMany(run.sent,
                      run.mismatched + (rate == 60.0 ? run.failed : 0),
                      "open-loop request failed or differs from Execute");
    all.sent += run.sent;
    all.completed += run.completed;
    all.trace_cost_s += run.trace_cost_s;
    all.wall_s += run.wall_s;
    for (auto series : {&OpenLoop::late_ms, &OpenLoop::submit_us,
                        &OpenLoop::queue_depth}) {
      (all.*series).insert((all.*series).end(), (run.*series).begin(),
                           (run.*series).end());
    }
    const Summary latency = Summarize(run.latency_ms, 99.0);
    if (rate == 60.0) {
      report->Metric("step_s", latency.p50 / 1e3, "s",
                     "serve_p50_ms_r60 / 1000: " + Describe(latency, "ms"));
      r60_latency = latency;
      if (args.trace) r60_submit_ms = Summarize(run.submit_us).p50 / 1e3;
    }
    if (!args.trace) continue;
    if (fixed) {
      report->Metric("serve_p50_ms_r" + r, latency.p50, "ms",
                     Describe(latency, "ms"));
      report->Metric("serve_p99_ms_r" + r, latency.tail, "ms",
                     Describe(latency, "ms"));
    }
    if (ladder_stopped) continue;
    LadderStep step;
    step.rate = rate;
    step.sent = run.sent;
    step.failures = run.failed + run.mismatched;
    step.backlog_end = run.backlog_end;
    step.p99_ms = latency.tail_level == 99.0 ? latency.tail : 0.0;
    steps.push_back(step);
    ladder_stopped = !StepPasses(step, kP99LimitMs);
    std::printf("ladder rate %g: sent %lld, failures %lld, p99 %.4g ms, "
                "backlog at end %lld -> %s\n",
                rate, static_cast<long long>(step.sent),
                static_cast<long long>(step.failures), step.p99_ms,
                static_cast<long long>(step.backlog_end),
                ladder_stopped ? "fail, ladder stops" : "pass");
  }
  if (args.trace) {
    report->Metric("serve_max_rps", MaxPassingRate(steps, kP99LimitMs), "req/s",
                   "highest ladder rate with p99 <= 50 ms, no backlog growth, "
                   "no failures");
  }

  Phase(w, "shutdown");
  reloader.Stop();
  report->Check(reloader.version_errors() == 0,
                "plan_version did not rise by one per Reload");
  report->Check(reloader.failures() == 0, "Reload of a good checkpoint failed");
  const serve::HealthSnapshot health = server.Health();
  server.Shutdown();

  if (args.trace) {
    Phase(w, "probe");
    const Summary exec = Summarize(execute_ms, 99.0);
    report->Metric("plan.execute_ms_p50", exec.p50, "ms",
                   "single-thread Execute over the pool: " +
                       Describe(exec, "ms"));
    report->Metric("plan.execute_ms_p99", exec.tail, "ms",
                   Describe(exec, "ms"));
    auto* feature = dynamic_cast<rl::FeatureUgvPolicy*>(serving->policy.get());
    report->Metric("plan.compile_ms", MedianCallMs(3, [&] {
                     auto plan =
                         core::ServingPlan::Compile(*feature, serving->context);
                     report->Check(plan.ok(), "Compile failed");
                   }),
                   "ms");
    std::vector<Request> sample;
    for (size_t i = 0; i < pool.size(); i += 5) sample.push_back(pool[i]);
    report->Metric("policy.fwd_nograd_ms",
                   ProbeForward(*serving->policy, sample).fwd_nograd_ms, "ms",
                   "tensor Forward under NoGradGuard on the same requests");
    const Summary late = Summarize(all.late_ms, 99.0);
    report->Metric("gen.late_p99_ms", late.tail, "ms", Describe(late, "ms"));
    report->Metric("gen.sent", static_cast<double>(all.sent), "count");
    report->Metric("gen.completed", static_cast<double>(all.completed),
                   "count");
    report->Metric("serve.submit_us_p50", Summarize(all.submit_us).p50, "us");
    report->Metric("serve.queue_depth_max",
                   all.queue_depth.empty()
                       ? 0.0
                       : *std::max_element(all.queue_depth.begin(),
                                           all.queue_depth.end()),
                   "count", "Health().queue_depth after each send");
    double depth_sum = 0.0;
    for (double d : all.queue_depth) depth_sum += d;
    const double sends = static_cast<double>(all.queue_depth.size());
    report->Metric("serve.queue_depth_mean",
                   sends > 0.0 ? depth_sum / sends : 0.0, "count");
    report->Metric("serve.reload_ms", Median(reloader.reload_ms()), "ms");
    report->Metric("serve.reloads", static_cast<double>(health.reloads),
                   "count");
    report->Metric("serve.reload_failures",
                   static_cast<double>(health.reload_failures), "count");
    report->Metric("serve.shed", static_cast<double>(health.shed), "count");
    report->Metric("serve.rejected", static_cast<double>(health.rejected),
                   "count");
    report->Metric("serve.deadline_misses",
                   static_cast<double>(health.deadline_misses), "count");
    // The gated step_s is the median latency at 60 req/s. Of it, the layers
    // account for one Execute and one Submit; the rest is queue wait,
    // dispatch and the collector's wake-up, which no public call exposes.
    report->Metric("trace.coverage_frac",
                   r60_latency.p50 > 0.0
                       ? (exec.p50 + r60_submit_ms) / r60_latency.p50
                       : 0.0,
                   "ratio",
                   "(plan.execute_ms_p50 + Submit p50 at 60 req/s) over "
                   "serve_p50_ms_r60");
    report->Metric("trace.overhead_frac", all.trace_cost_s / all.wall_s,
                   "ratio", "Health() polls over open-loop wall");
  }
  return 0;
}

}  // namespace perfbench
