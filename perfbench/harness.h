#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "env/types.h"
#include "env/world.h"
#include "obs/trace.h"
#include "rl/policy.h"
#include "rl/uav_controller.h"

// Shared plumbing of the workload drivers: arguments, the result report,
// phase announcements for the watchdog, clocks, and the layer probes that
// time calls into the program's public functions from outside.

namespace perfbench {

// Set-up is repeated this often per run and reported as the median: it takes
// milliseconds, so one sample would be mostly noise.
inline constexpr int kSetupReps = 41;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch;  // private directory for checkpoints and run logs
};

// Collects metrics and output checks; Print() writes the result line.
class Report {
 public:
  // Records a metric and prints a human-readable line for it.
  void Metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "");
  // Counts one checked operation; a failed check also prints `what`.
  void Check(bool ok, const std::string& what);
  // Counts `attempted` checked operations of which `failed` failed.
  void CheckMany(int64_t attempted, int64_t failed, const std::string& what);

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

  // Prints the result as one JSON line with every recorded metric.
  void Print() const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// Announces the phase now running on stderr; the watchdog names it when the
// run's time budget expires.
void Phase(const std::string& workload, const std::string& phase);

// Monotonic wall clock in seconds.
double NowS();
// Peak resident set size of this process in MB.
double PeakRssMb();

// Median of `values` (copied); 0 for an empty input.
double Median(std::vector<double> values);

// "min 1.2, p25 1.3, p75 1.5, max 2.0" over `values` (nearest rank).
std::string Quartiles(std::vector<double> values);

// Median wall milliseconds over `reps` calls of `fn`, after one untimed call.
double MedianCallMs(int reps, const std::function<void()>& fn);

// Prints the facts every result is recorded with; returns false when the
// build is not optimized (the run is refused).
bool PrintFacts(const Args& args);

// Change of one span aggregate between two TraceCollector snapshots.
struct SpanDelta {
  int64_t count = 0;
  double total_s = 0.0;
};
SpanDelta SpanBetween(const std::vector<garl::obs::SpanStats>& before,
                      const std::vector<garl::obs::SpanStats>& after,
                      const std::string& name);

// Joint observation of every UGV (one serving request).
std::vector<garl::env::UgvObservation> ObserveAll(
    const garl::env::World& world);

// One episode driven like rl::EvaluatePolicy's episode loop, with the env
// and action calls timed from outside.
struct TimedEpisode {
  std::vector<double> observe_us;  // ObserveUgv for all UGVs, per slot
  std::vector<double> sample_us;   // SampleUgvAction, per call
  std::vector<double> uav_act_us;  // UavController::Act, per call
  std::vector<double> step_us;     // World::Step, per slot
  std::vector<std::vector<garl::env::UgvObservation>> requests;
};
TimedEpisode RunTimedEpisode(garl::env::World& world,
                             garl::rl::UgvPolicyNetwork& policy,
                             garl::rl::UavController& uav_controller,
                             uint64_t eval_seed, int64_t episode, bool greedy);

// Reports the env and rl call timings of `episode` (env.*, rl.sample_us,
// rl.uav_act_us).
void ReportEpisodeLayers(const TimedEpisode& episode, Report* report);

// Per-layer timings of the tensor forward and the PPO update path on
// recorded joint observations, timed around public calls.
struct ForwardProbe {
  double fwd_nograd_ms = 0.0;
  double extract_ms = 0.0;
  double priors_ms = 0.0;
};
ForwardProbe ProbeForward(
    garl::rl::UgvPolicyNetwork& policy,
    const std::vector<std::vector<garl::env::UgvObservation>>& requests);

struct UpdateProbe {
  double fwd_grad_ms = 0.0;   // one slot's joint Forward with grad
  double backward_ms = 0.0;   // Backward of an 8-slot minibatch loss
  double adam_step_ms = 0.0;  // ClipGradNorm + Adam::Step
  double matmul_gflops = 0.0; // Laplacian MatMul forward + backward
};
// Trains `policy` on replayed minibatches: call it only when the policy's
// weights no longer matter to the workload.
UpdateProbe ProbeUpdate(
    garl::rl::UgvPolicyNetwork& policy, const garl::rl::EnvContext& context,
    const std::vector<std::vector<garl::env::UgvObservation>>& requests,
    uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
