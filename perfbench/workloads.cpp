#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "analysis/audit.hpp"
#include "analysis/lint.hpp"
#include "core/api.hpp"
#include "core/env_loader.hpp"
#include "core/scenarios.hpp"
#include "engine/worker_pool.hpp"
#include "model/recovery_sim.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "solver/config_solver.hpp"
#include "solver/reconfigure.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace perfbench {

using namespace depstor;

namespace {

constexpr int kSetupReps = 5;     // set-up runs per workload; median reported
constexpr int kSolverSeeds = 32;  // solve_* ops cycle through this many seeds

// ------------------------------------------------------------------ helpers

/// Interpolated median (depstor::percentile), or 0 when a run was too short
/// or too broken to produce any sample.
double p50(const std::vector<double>& v) {
  return v.empty() ? 0.0 : depstor::percentile(v, 0.5);
}

/// Per-layer samples by metric name; reported as medians.
struct LayerSamples {
  std::map<std::string, std::vector<double>> values;
  void add(const std::string& name, double v) { values[name].push_back(v); }
  double med(const std::string& name) const {
    const auto it = values.find(name);
    return it == values.end() ? 0.0 : p50(it->second);
  }
  bool has(const std::string& name) const { return values.count(name) > 0; }
};

/// Time `fn` and record it as a span under `parent`; returns elapsed ms.
double timed(SpanRecorder& spans, const char* name, std::int64_t op,
             int parent, const std::function<void()>& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  const Clock::time_point t1 = Clock::now();
  spans.add(name, t0, t1, op, parent);
  return ms_between(t0, t1);
}

bool same_totals(const CostBreakdown& a, const CostBreakdown& b) {
  return a.outlay == b.outlay && a.outage_penalty == b.outage_penalty &&
         a.loss_penalty == b.loss_penalty;
}

/// Output checks on one returned design: feasible, passes the design
/// auditor, and (when `full_eval`) its reported totals equal a cache-free,
/// non-incremental evaluation bit for bit.
void check_design(const Candidate& design, const CostBreakdown& reported,
                  bool full_eval, const std::string& what,
                  RunReport& report) {
  try {
    design.check_feasible();
  } catch (const std::exception& e) {
    report.fail_check(what + ": infeasible design: " + e.what());
    return;
  }
  const analysis::DiagnosticReport audit =
      analysis::audit_candidate(design, &reported);
  if (audit.has_errors()) {
    report.fail_check(what + ": audit_design found " +
                      std::to_string(audit.error_count()) + " error(s)");
  }
  if (full_eval) {
    Candidate fresh = design;
    fresh.set_incremental_enabled(false);
    if (!same_totals(fresh.evaluate(), reported)) {
      report.fail_check(what + ": totals differ from a cache-free evaluation");
    }
  }
}

/// Replays single-layer calls on a returned design, each timed as a span
/// under `parent`. `seed` drives the reconfiguration move.
void replay_design_layers(const Candidate& design, const CostBreakdown& cost,
                          std::uint64_t seed, std::int64_t op, int parent,
                          SpanRecorder& spans, LayerSamples& ls) {
  const Environment& env = design.env();
  int app = -1;
  for (const AppAssignment& a : design.assignments()) {
    if (a.assigned) {
      app = a.app_id;
      break;
    }
  }
  {
    Candidate c = design;
    ConfigSolver solver(&env);
    ls.add("solver.config_solve_ms",
           timed(spans, "solver.config_solve", op, parent,
                 [&] { solver.solve(c); }));
  }
  {
    Candidate c = design;
    Rng rng(seed);
    Reconfigurator rc(&env, &rng);
    ls.add("solver.reconfigure_us",
           1000.0 * timed(spans, "solver.reconfigure", op, parent, [&] {
             rc.reconfigure_app(c, rc.pick_app_to_reconfigure(c, cost));
           }));
  }
  {
    Candidate c = design;
    c.set_incremental_enabled(false);
    ls.add("cost.eval_full_ms", timed(spans, "cost.eval_full", op, parent,
                                      [&] { c.evaluate(); }));
  }
  if (app >= 0) {
    Candidate c = design;
    c.evaluate();  // warm the incremental cache
    const DesignChoice choice = c.choice(app);
    bool placed = true;
    const double place_ms =
        timed(spans, "resources.place_remove", op, parent, [&] {
          c.remove_app(app);
          try {
            c.place_app(app, choice);
          } catch (const InfeasibleError&) {
            placed = false;
          }
        });
    if (placed) {
      ls.add("resources.place_remove_us", 1000.0 * place_ms);
      ls.add("cost.eval_incremental_us",
             1000.0 * timed(spans, "cost.eval_incremental", op, parent,
                            [&] { c.evaluate(); }));
    }
  }
  ls.add("resources.check_feasible_us",
         1000.0 * timed(spans, "resources.check_feasible", op, parent,
                        [&] { design.check_feasible(); }));
  std::vector<ScenarioSpec> scenarios;
  ls.add("model.enumerate_us",
         1000.0 * timed(spans, "model.enumerate", op, parent, [&] {
           scenarios = enumerate_scenarios(env.apps, design.assignments(),
                                           design.pool(),
                                           design.scenario_model());
         }));
  if (!scenarios.empty()) {
    const double sim_ms = timed(spans, "model.simulate", op, parent, [&] {
      for (const ScenarioSpec& s : scenarios) {
        simulate_recovery(s, env.apps, design.assignments(), design.pool(),
                          env.params);
      }
    });
    ls.add("model.sim_us_per_scenario",
           1000.0 * sim_ms / static_cast<double>(scenarios.size()));
  }
}

/// Per-chunk cost of an empty fan on a `threads`-worker pool.
void measure_fan_dispatch(int threads, LayerSamples& ls) {
  WorkerPool pool(threads);
  constexpr int kChunks = 64;
  for (int rep = 0; rep < 20; ++rep) {
    TaskGroup group(&pool);
    const Clock::time_point t0 = Clock::now();
    group.run_indexed(kChunks, 1, [](int) {});
    group.wait();
    ls.add("engine.fan_dispatch_us",
           1000.0 * ms_between(t0, Clock::now()) / kChunks);
  }
}

/// Work counters summed over ops (SolveResult fields).
struct Counts {
  long long ops = 0;
  double nodes = 0, evaluations = 0, greedy_restarts = 0;
  double simulated = 0, reused = 0;
  double tasks = 0, steals = 0, fanned = 0, min_fan = 0;

  void add(const SolveResult& r) {
    ++ops;
    nodes += static_cast<double>(r.nodes_evaluated);
    evaluations += static_cast<double>(r.evaluations);
    greedy_restarts += static_cast<double>(r.greedy_restarts);
    simulated += static_cast<double>(r.scenarios_simulated);
    reused += static_cast<double>(r.scenarios_reused);
    tasks += static_cast<double>(r.refit_parallel_tasks);
    steals += static_cast<double>(r.refit_steal_count);
    fanned += r.refit_fanned ? 1.0 : 0.0;
    min_fan += r.intra_min_fan_used;
  }
  double per_op(double v) const { return ops > 0 ? v / ops : 0.0; }
};

/// End-to-end metrics shared by every workload.
struct EndToEnd {
  std::vector<double> setup_ms;
  std::vector<double> latency_ms;  ///< completed ops only
  long long good = 0;              ///< completed within the latency limit
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  /// Total cost (US$/yr) of each design the metric covers. Reported as the
  /// median: some 5-10% of budget-limited solves return penalty-heavy
  /// designs costing 10-1000x the typical one, which moves a mean (even a
  /// geometric one) by 25-50% between seeds.
  std::vector<double> design_costs;
  double limit_ms = 0.0;
  /// Peak resident set when the timed window ends, before any untimed
  /// solves, checks or rate ladder after it.
  double rss_mb = 0.0;
};

void report_end_to_end(const EndToEnd& e, RunReport& report) {
  const double ops = static_cast<double>(e.latency_ms.size());
  const double wall_s = e.wall_ms / 1000.0;
  report.add("setup_s", p50(e.setup_ms) / 1000.0, "s");
  report.add("latency_ms.p50", p50(e.latency_ms), "ms");
  const Percentile p99 = percentile(e.latency_ms, 0.99);
  report.add("latency_ms.p99", p99.value, "ms");
  report.notes.push_back(
      "latency_ms.p99: " + std::to_string(p99.samples) + " samples, " +
      std::to_string(p99.beyond) + " beyond" +
      (p99.resolved ? "" : " (unresolved: fewer than 10 beyond; needs " +
                               std::to_string(samples_needed(0.99)) +
                               " samples)"));
  report.add("ops_per_s", wall_s > 0 ? ops / wall_s : 0.0, "1/s");
  report.add("goodput_per_s",
             wall_s > 0 ? static_cast<double>(e.good) / wall_s : 0.0, "1/s");
  report.notes.push_back("goodput_per_s: latency limit " +
                         std::to_string(static_cast<int>(e.limit_ms)) + " ms");
  report.add("cpu_ms_per_op", ops > 0 ? e.cpu_ms / ops : 0.0, "ms");
  report.add("peak_rss_mb", e.rss_mb, "MB");
  report.add("design_cost_musd", p50(e.design_costs) / 1e6, "musd/yr");
}

void report_counts(const Counts& c, RunReport& report) {
  report.add("solver.nodes_per_op", c.per_op(c.nodes), "count");
  report.add("solver.evaluations_per_op", c.per_op(c.evaluations), "count");
  report.add("solver.greedy_restarts_per_op", c.per_op(c.greedy_restarts),
             "count");
  report.add("cost.scenarios_simulated_per_op", c.per_op(c.simulated),
             "count");
  report.add("cost.scenario_reuse_ratio",
             c.simulated + c.reused > 0
                 ? c.reused / (c.simulated + c.reused)
                 : 0.0,
             "ratio");
  report.add("engine.refit_tasks_per_op", c.per_op(c.tasks), "count");
  report.add("engine.refit_steals_per_op", c.per_op(c.steals), "count");
  report.add("engine.fanned_share", c.per_op(c.fanned), "ratio");
  report.add("engine.min_fan_used", c.per_op(c.min_fan), "count");
}

/// Layer time estimate per op: replayed per-call times × calls per op, over
/// leaf layers only (a reconfigure or config-solve call contains them).
double layer_estimate_ms(const LayerSamples& ls, const Counts& c) {
  return (ls.med("model.sim_us_per_scenario") * c.per_op(c.simulated) +
          ls.med("model.enumerate_us") * c.per_op(c.evaluations) +
          (ls.med("resources.place_remove_us") +
           ls.med("resources.check_feasible_us")) *
              c.per_op(c.nodes)) /
         1000.0;
}

/// Interleaved modes of the traced pass: untraced, program tracing on
/// (obs::set_trace_enabled), benchmark spans + layer replays.
enum class Mode { Plain, ProgramTrace, BenchTrace };
Mode mode_of(long long i) { return static_cast<Mode>(i % 3); }

struct TraceTimes {
  std::vector<double> plain, program, bench, plain_cpu;
};

void report_trace_overheads(const TraceTimes& t, double intra,
                            const LayerSamples& ls, const Counts& c,
                            RunReport& report) {
  const double plain = p50(t.plain);
  report.add("obs.trace_overhead_ratio",
             plain > 0 ? p50(t.program) / plain : 0.0, "ratio");
  report.add("bench.trace_overhead_ratio",
             plain > 0 ? p50(t.bench) / plain : 0.0, "ratio");
  report.add("engine.parallel_efficiency",
             plain > 0 ? p50(t.plain_cpu) / (plain * intra) : 0.0,
             "ratio");
  report.add("model.sim_share_est",
             plain > 0 ? ls.med("model.sim_us_per_scenario") *
                             c.per_op(c.simulated) / (1000.0 * plain)
                       : 0.0,
             "ratio");
  report.add("bench.unattributed_share",
             plain > 0 ? 1.0 - layer_estimate_ms(ls, c) / (plain * intra)
                       : 0.0,
             "ratio");
}

void report_layer_samples(const LayerSamples& ls, RunReport& report) {
  for (const auto& [name, unit] : layer_metrics()) {
    if (ls.has(name)) report.add(name, ls.med(name), unit);
  }
}

// ------------------------------------------------------------ solve_* ops

// Latency limit of one solve for goodput; a solve takes ~0.4-0.6 s.
constexpr double kSolveLimitMs = 2000.0;

struct SolveShape {
  int breadth = 3;
  int refit_iterations = 8;
  int intra = 1;
};

SolveRequest solve_request(const Environment& env, const SolveShape& shape,
                           std::uint64_t seed) {
  SolveRequest r;
  r.env = &env;
  r.options.seed = seed;
  r.options.max_repetitions = 1;
  r.options.breadth = shape.breadth;
  r.options.max_refit_iterations = shape.refit_iterations;
  r.exec.deterministic = true;
  r.exec.intra_node_workers = shape.intra;
  return r;
}

void run_solve(const RunOptions& opt, const SolveShape& shape,
               RunReport& report) {
  std::vector<std::uint64_t> seeds;
  for (int k = 0; k < kSolverSeeds; ++k) {
    seeds.push_back(
        derive_seed(opt.seed, {0x50e, static_cast<std::uint64_t>(k)}));
  }
  struct SeedResult {
    std::optional<Candidate> best;
    CostBreakdown cost;
  };
  std::vector<SeedResult> per_seed(kSolverSeeds);
  std::vector<std::unique_ptr<Environment>> envs;  // designs point into these
  EndToEnd e2e;
  e2e.limit_ms = kSolveLimitMs;

  // Work counters over one result per seed, so they depend on the workload
  // seed only, not on how many ops fit the window.
  Counts counts;
  // Record a feasible seed's first result; later results must repeat it
  // exactly.
  const auto record = [&](int k, SolveResult& r) {
    SeedResult& s = per_seed[static_cast<std::size_t>(k)];
    if (!s.best.has_value()) {
      counts.add(r);
      s.best = std::move(r.best);
      s.cost = r.cost;
    } else if (!same_totals(s.cost, r.cost)) {
      report.fail_check("seed " + std::to_string(k) +
                        ": repeated deterministic solve returned different "
                        "totals");
    }
  };

  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    envs.push_back(
        std::make_unique<Environment>(scenarios::multi_site(24, 6, 8)));
    SolveResult warm = solve(solve_request(
        *envs.back(), shape, seeds[static_cast<std::size_t>(rep)]));
    e2e.setup_ms.push_back(ms_between(t0, Clock::now()));
    if (warm.feasible) record(rep, warm);
  }
  const Environment& env = *envs.back();

  TraceTimes tt;
  LayerSamples ls;
  const double cpu0 = process_cpu_ms();
  const Clock::time_point start = Clock::now();
  for (long long i = 0; ms_between(start, Clock::now()) < opt.seconds * 1000.0;
       ++i) {
    // The traced pass runs each seed once per mode, so modes compare
    // identical work.
    const int k = static_cast<int>((opt.trace ? i / 3 : i) % kSolverSeeds);
    const SolveRequest req =
        solve_request(env, shape, seeds[static_cast<std::size_t>(k)]);
    const Mode mode = opt.trace ? mode_of(i) : Mode::Plain;
    if (mode == Mode::ProgramTrace) obs::set_trace_enabled(true);
    const double c0 = process_cpu_ms();
    const Clock::time_point t0 = Clock::now();
    SolveResult r = solve(req);
    const Clock::time_point t1 = Clock::now();
    const double op_cpu = process_cpu_ms() - c0;
    if (mode == Mode::ProgramTrace) {
      obs::set_trace_enabled(false);
      obs::clear_trace();
    }
    const double ms = ms_between(t0, t1);
    ++report.attempted;
    const CostBreakdown cost = r.cost;
    std::optional<Candidate> design =
        mode == Mode::BenchTrace ? r.best : std::nullopt;
    if (!r.feasible) {
      ++report.failed;
      continue;
    }
    record(k, r);
    e2e.latency_ms.push_back(ms);
    if (ms <= kSolveLimitMs) ++e2e.good;
    if (mode == Mode::Plain) {
      tt.plain.push_back(ms);
      tt.plain_cpu.push_back(op_cpu);
    } else if (mode == Mode::ProgramTrace) {
      tt.program.push_back(ms);
    } else {
      report.spans.add("depstor::solve", t0, t1, i);
      tt.bench.push_back(ms);
      const int replay = report.spans.begin("replay", i);
      replay_design_layers(*design, cost, seeds[static_cast<std::size_t>(k)],
                           i, replay, report.spans, ls);
      report.spans.end(replay);
    }
  }
  e2e.wall_ms = ms_between(start, Clock::now());
  e2e.cpu_ms = process_cpu_ms() - cpu0;
  e2e.rss_mb = peak_rss_mb();

  // Seeds the window did not reach are solved untimed, so the design cost
  // depends on the workload seed only.
  for (int k = 0; k < kSolverSeeds; ++k) {
    SeedResult& s = per_seed[static_cast<std::size_t>(k)];
    if (!s.best.has_value()) {
      SolveResult r = solve(
          solve_request(env, shape, seeds[static_cast<std::size_t>(k)]));
      if (!r.feasible) {
        report.fail_check("seed " + std::to_string(k) + ": no feasible design");
        continue;
      }
      record(k, r);
    }
    check_design(*s.best, s.cost, /*full_eval=*/true,
                 "seed " + std::to_string(k), report);
    e2e.design_costs.push_back(s.cost.total());
  }
  report.notes.push_back("solver seeds cycled per op: " +
                         std::to_string(kSolverSeeds));

  if (!opt.trace) {
    report_end_to_end(e2e, report);
    return;
  }
  report.spans.set_enabled(false);
  measure_fan_dispatch(kLoadThreads, ls);
  report_counts(counts, report);
  report_layer_samples(ls, report);
  report_trace_overheads(tt, shape.intra, ls, counts, report);
}

// ------------------------------------------------------------ churn_resolve

// Many short drift paths rather than one long one: a warm resolve keeps the
// designs of untouched apps, so one path's cost depends heavily on where it
// drifted (some paths carry penalty-heavy designs for dozens of steps). The
// mean over a fixed set of independent paths is what a seed reproduces.
constexpr int kChurnPathLen = 10;     // resolve steps per drift path
constexpr int kChurnCostPaths = 200;  // paths behind design cost and counts
constexpr int kChurnAuditEvery = 20;  // cost-checked audit cadence (steps)

DesignSolverOptions churn_options(std::uint64_t seed) {
  DesignSolverOptions o;
  o.seed = seed;
  o.max_repetitions = 1;
  o.max_refit_iterations = 2;
  return o;
}

void run_churn(const RunOptions& opt, RunReport& report) {
  ExecutionOptions exec;
  exec.deterministic = true;
  std::shared_ptr<const Environment> base_env;
  std::optional<Candidate> base_design;

  // One drift path from the base design; input generation is outside the
  // timed call. `on_step` sees each step before the path advances.
  struct Step {
    long long path = 0;
    int index = 0;
    const Environment* prev_env = nullptr;  // the step's input design
    const Candidate* prev_design = nullptr;
    EnvDelta delta;
    ResolveResult out;
    Clock::time_point t0, t1;
    double ms() const { return ms_between(t0, t1); }
  };
  const auto run_path = [&](long long path,
                            const std::function<void(Step&)>& on_step) {
    const auto p = static_cast<std::uint64_t>(path);
    Rng rng(derive_seed(opt.seed, {0xd41f, p}));
    int next_name = 0;
    std::shared_ptr<const Environment> env = base_env;
    std::optional<Candidate> design = base_design;
    for (int i = 0; i < kChurnPathLen; ++i) {
      Step st;
      st.path = path;
      st.index = i;
      st.prev_env = env.get();
      st.prev_design = &*design;
      st.delta = make_drift_delta(*env, rng, &next_name);
      ResolveRequest req;
      req.prev_env = env.get();
      req.prev_solution = &*design;
      req.delta = st.delta;
      req.options = churn_options(
          derive_seed(opt.seed, {0x57e9, p, static_cast<std::uint64_t>(i)}));
      req.exec = exec;
      st.t0 = Clock::now();
      st.out = resolve(req);
      st.t1 = Clock::now();
      on_step(st);
      if (!st.out.result.feasible) return;
      // Replays in on_step read the step's predecessor; advance only now.
      env = st.out.env;
      design = std::move(st.out.result.best);
    }
  };

  EndToEnd e2e;
  e2e.limit_ms = 250.0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    base_env =
        std::make_shared<const Environment>(scenarios::multi_site(24, 6, 8));
    SolveRequest first;
    first.env = base_env.get();
    // One fixed living environment and design (the base of the churn probe
    // in bench/bench_solver_perf.cpp); the workload seed drives the drift.
    first.options = churn_options(1);
    first.exec = exec;
    SolveResult seed = solve(first);
    if (!seed.feasible) {
      report.fail_check("churn base design infeasible");
      return;
    }
    base_design = std::move(seed.best);
    // The untimed warm-up op: the first step of the first path.
    ResolveRequest warm;
    warm.prev_env = base_env.get();
    warm.prev_solution = &*base_design;
    Rng rng(derive_seed(opt.seed, {0xd41f, 0}));
    int next_name = 0;
    warm.delta = make_drift_delta(*base_env, rng, &next_name);
    warm.options = churn_options(derive_seed(opt.seed, {0x57e9, 0, 0}));
    warm.exec = exec;
    resolve(warm);
    e2e.setup_ms.push_back(ms_between(t0, Clock::now()));
  }

  // Checks run inline with the clock stopped: every design is checked for
  // feasibility and audited; every kChurnAuditEvery-th also has its totals
  // compared with a cache-free evaluation.
  double check_ms = 0.0, check_cpu = 0.0;
  long long checked = 0;
  const auto check_step = [&](const Step& st) {
    const Clock::time_point t0 = Clock::now();
    const double c0 = process_cpu_ms();
    const std::string what = "churn path " + std::to_string(st.path) +
                             " step " + std::to_string(st.index);
    if (!st.out.result.feasible) {
      report.fail_check(what + ": no feasible design");
    } else {
      check_design(*st.out.result.best, st.out.result.cost,
                   checked++ % kChurnAuditEvery == 0, what, report);
    }
    check_ms += ms_between(t0, Clock::now());
    check_cpu += process_cpu_ms() - c0;
  };

  Counts counts;  // over the first kChurnCostPaths paths
  TraceTimes tt;
  LayerSamples ls;
  long long warm_steps = 0, op = 0;
  const auto account = [&](const Step& st) {
    if (st.path >= kChurnCostPaths || !st.out.result.feasible) return;
    counts.add(st.out.result);
    e2e.design_costs.push_back(st.out.result.cost.total());
  };
  Mode mode = Mode::Plain;
  const double cpu0 = process_cpu_ms();
  double op_cpu0 = cpu0;
  const Clock::time_point start = Clock::now();
  const auto window_ms = [&] {
    return ms_between(start, Clock::now()) - check_ms;
  };
  long long path = 0;
  for (; window_ms() < opt.seconds * 1000.0; ++path) {
    run_path(path, [&](Step& st) {
      const double op_cpu = process_cpu_ms() - op_cpu0;
      if (mode == Mode::ProgramTrace) {
        obs::set_trace_enabled(false);
        obs::clear_trace();
      }
      ++report.attempted;
      account(st);
      if (!st.out.result.feasible) {
        ++report.failed;
      } else {
        warm_steps += st.out.warm ? 1 : 0;
        e2e.latency_ms.push_back(st.ms());
        if (st.ms() <= e2e.limit_ms) ++e2e.good;
        if (mode == Mode::Plain) {
          tt.plain.push_back(st.ms());
          tt.plain_cpu.push_back(op_cpu);
        } else if (mode == Mode::ProgramTrace) {
          tt.program.push_back(st.ms());
        } else {
          report.spans.add("depstor::resolve", st.t0, st.t1, op);
          tt.bench.push_back(st.ms());
          const int replay = report.spans.begin("replay", op);
          std::optional<DeltaPlan> plan;
          ls.add("core.apply_delta_us",
                 1000.0 * timed(report.spans, "core.apply_delta", op, replay,
                                [&] {
                                  plan = apply_delta(*st.prev_env, st.delta);
                                }));
          Candidate moved = *st.prev_design;
          ls.add("solver.migrate_us",
                 1000.0 * timed(report.spans, "solver.migrate", op, replay,
                                [&] {
                                  moved.migrate(&plan->env, plan->new_of_old);
                                }));
          replay_design_layers(
              *st.out.result.best, st.out.result.cost,
              derive_seed(opt.seed, {0x7e, static_cast<std::uint64_t>(op)}),
              op, replay, report.spans, ls);
          report.spans.end(replay);
        }
      }
      check_step(st);
      ++op;
      mode = opt.trace ? mode_of(op) : Mode::Plain;
      if (mode == Mode::ProgramTrace) obs::set_trace_enabled(true);
      op_cpu0 = process_cpu_ms();
    });
  }
  obs::set_trace_enabled(false);
  e2e.wall_ms = window_ms();
  e2e.cpu_ms = process_cpu_ms() - cpu0 - check_cpu;
  e2e.rss_mb = peak_rss_mb();

  // Paths the window did not reach still count toward design cost, so it
  // depends on the seed only; they are checked but not timed.
  for (; path < kChurnCostPaths; ++path) {
    run_path(path, [&](Step& st) {
      account(st);
      check_step(st);
    });
  }
  // Determinism: path 0 replayed must repeat its totals.
  std::vector<CostBreakdown> first, again;
  run_path(0, [&](Step& st) { first.push_back(st.out.result.cost); });
  run_path(0, [&](Step& st) { again.push_back(st.out.result.cost); });
  for (std::size_t i = 0; i < first.size(); ++i) {
    if (i >= again.size() || !same_totals(first[i], again[i])) {
      report.fail_check("churn path 0 step " + std::to_string(i) +
                        ": replay returned different totals");
    }
  }
  report.notes.push_back(
      "churn: " + std::to_string(warm_steps) + " of " +
      std::to_string(e2e.latency_ms.size()) + " steps served warm, " +
      std::to_string(path) + " drift paths of " +
      std::to_string(kChurnPathLen) + " steps; design cost over the first " +
      std::to_string(kChurnCostPaths));

  if (!opt.trace) {
    report_end_to_end(e2e, report);
    return;
  }
  report.spans.set_enabled(false);
  measure_fan_dispatch(kLoadThreads, ls);
  report_counts(counts, report);
  report_layer_samples(ls, report);
  report_trace_overheads(tt, 1.0, ls, counts, report);
}

// ------------------------------------------------------------- serve_stream

// Offered requests per second. The 4 connections cap throughput near
// 4 / (request latency), ~85 req/s. Open-loop queueing for a connection
// amplifies host CPU contention: the median latency spread across seeds was
// 0.43 at 60 req/s and 0.20 at 45 req/s. At 30 req/s a 20 s run has ~590
// samples, so its p99 is not resolved.
constexpr double kServeRate = 30.0;
// Rate ladder above kServeRate for max_rate_per_s, each step this long.
constexpr double kLadderRates[] = {45.0, 60.0, 75.0, 85.0};
constexpr double kLadderStepS = 4.0;
constexpr double kServeLimitMs = 500.0;  // latency and generator lag limit

struct ServeInputs {
  std::vector<std::string> ini;                 // per pool env
  std::vector<std::vector<std::string>> succ;   // per env, per variant
  std::vector<std::uint64_t> design_seed;       // per env
  std::vector<std::vector<std::uint64_t>> resolve_seed;

  DesignSolverOptions options(std::uint64_t seed) const {
    DesignSolverOptions o;
    o.seed = seed;
    o.max_repetitions = 1;
    o.max_refit_iterations = 2;
    o.breadth = 2;
    o.depth = 2;
    return o;
  }
};

/// The service's fixed catalog of client environments, their successors and
/// request seeds. The workload seed drives only the traffic (which
/// environment arrives when, what chains on what): with seeded environment
/// contents, one penalty-heavy design among the few dozen moved the design
/// cost ~2.6x between seeds.
ServeInputs make_serve_inputs() {
  constexpr std::uint64_t kCatalogSeed = 20060625;
  ServeInputs in;
  Rng rng(derive_seed(kCatalogSeed, {0x5e7e}));
  for (int e = 0; e < kServePool; ++e) {
    const std::uint64_t env_seed =
        derive_seed(kCatalogSeed, {0xe4, static_cast<std::uint64_t>(e)});
    // Fixed sizes spread over 2..16 apps; only the contents are seeded.
    const int apps = 2 + (e * 14) / (kServePool - 1);
    in.ini.push_back(make_env_ini(env_seed, apps));
    // Seeds travel as JSON numbers: keep them exact in a double.
    in.design_seed.push_back(rng.uniform_int(1, 1 << 30));
    in.succ.emplace_back();
    in.resolve_seed.emplace_back();
    for (int v = 0; v < kServeVariants; ++v) {
      in.succ.back().push_back(make_successor_ini(
          env_seed, apps,
          derive_seed(env_seed, {static_cast<std::uint64_t>(v)})));
      in.resolve_seed.back().push_back(rng.uniform_int(1, 1 << 30));
    }
  }
  return in;
}

/// What happened to one scheduled arrival (times in ms from phase start).
struct Outcome {
  double sent = 0, accepted = 0, done = 0;
  bool ok = false;
  bool rejected = false;
  double total_cost = 0.0;
  double queue_ms = 0.0, run_ms = 0.0;
  long long nodes = 0, hits = 0, misses = 0;
  bool fanned = false;
};

/// Open-loop load generator: one dispatcher releases arrivals at their due
/// times to `conns` connection threads, each carrying one request at a time.
class LoadGenerator {
 public:
  LoadGenerator(int port, int conns, const ServeInputs& in,
               const std::vector<Arrival>& schedule, SpanRecorder& spans,
               std::int64_t op_base)
      : port_(port), conns_(conns), in_(in), schedule_(schedule),
        spans_(spans), op_base_(op_base), out_(schedule.size()),
        finished_(schedule.size(), 0) {}

  const std::vector<Outcome>& run() {
    start_ = Clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < conns_; ++c) threads.emplace_back([this] { loop(); });
    for (std::size_t i = 0; i < schedule_.size(); ++i) {
      std::this_thread::sleep_until(
          start_ + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(
                           schedule_[i].due_ms)));
      std::lock_guard<std::mutex> lock(mu_);
      ready_.push_back(i);
      cv_.notify_all();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      dispatching_ = false;
      cv_.notify_all();
    }
    for (std::thread& t : threads) t.join();
    return out_;
  }

  Clock::time_point start() const { return start_; }

 private:
  double now_ms() const { return ms_between(start_, Clock::now()); }

  void loop() {
    std::unique_ptr<serve::Client> client;
    for (;;) {
      std::size_t i = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return !ready_.empty() || !dispatching_; });
        if (ready_.empty()) return;
        i = ready_.front();
        ready_.pop_front();
      }
      const Arrival& a = schedule_[i];
      Outcome o = out_[i];
      if (a.kind == Arrival::Kind::Resolve) {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait_for(lock, std::chrono::seconds(30), [&] {
          return finished_[static_cast<std::size_t>(a.ref)] != 0;
        });
      }
      try {
        if (client == nullptr || !client->connected() || client->eof()) {
          client = std::make_unique<serve::Client>("127.0.0.1", port_);
        }
        serve_one(*client, i, a, o);
      } catch (const std::exception&) {
        o.ok = false;
        client.reset();
      }
      if (o.done == 0) o.done = now_ms();
      std::lock_guard<std::mutex> lock(mu_);
      out_[i] = o;
      finished_[i] = 1;
      cv_.notify_all();
    }
  }

  void serve_one(serve::Client& client, std::size_t i, const Arrival& a,
                 Outcome& o) {
    const std::int64_t op = op_base_ + static_cast<std::int64_t>(i);
    o.sent = now_ms();
    const Clock::time_point sent_at = Clock::now();
    if (a.kind == Arrival::Kind::Stats) {
      if (!client.request_stats()) return;
      const auto ev = wait_event(client);
      o.done = now_ms();
      o.ok = ev.has_value() && ev->has("type") &&
             ev->at("type").as_string() == "stats";
      spans_.add("serve.stats", sent_at, Clock::now(), op);
      return;
    }
    serve::WireRequest req;
    req.id = "r" + std::to_string(op);
    req.deterministic = true;
    const auto e = static_cast<std::size_t>(a.env);
    if (a.kind == Arrival::Kind::Design) {
      req.env_ini = in_.ini[e];
      req.options = in_.options(in_.design_seed[e]);
    } else {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (!out_[static_cast<std::size_t>(a.ref)].ok) return;
      }
      const auto v = static_cast<std::size_t>(a.variant);
      req.op = serve::WireRequest::Op::Resolve;
      req.env_ini = in_.succ[e][v];
      req.prev_job = "r" + std::to_string(op_base_ + a.ref);
      req.options = in_.options(in_.resolve_seed[e][v]);
    }
    const bool sent = a.kind == Arrival::Kind::Design
                          ? client.send_design(req)
                          : client.send_resolve(req);
    if (!sent) return;
    Clock::time_point accepted_at = sent_at;
    for (;;) {
      const auto ev = wait_event(client);
      if (!ev.has_value()) return;
      const std::string& type = ev->at("type").as_string();
      if (type == "accepted") {
        o.accepted = now_ms();
        accepted_at = Clock::now();
      } else if (type == "rejected") {
        o.rejected = true;
        o.done = now_ms();
        return;
      } else if (type == "result") {
        o.done = now_ms();
        o.ok = ev->at("status").as_string() == "completed" &&
               ev->at("feasible").as_bool();
        o.total_cost = ev->at("total_cost").as_number();
        o.queue_ms = ev->at("queue_ms").as_number();
        o.run_ms = ev->at("run_ms").as_number();
        o.nodes = static_cast<long long>(ev->at("nodes").as_number());
        o.hits = static_cast<long long>(ev->at("cache_hits").as_number());
        o.misses = static_cast<long long>(ev->at("cache_misses").as_number());
        o.fanned = ev->at("refit_fanned").as_bool();
        const Clock::time_point due =
            start_ + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(
                             schedule_[i].due_ms));
        const int root = spans_.add(a.kind == Arrival::Kind::Design
                                        ? "serve.design"
                                        : "serve.resolve",
                                    due, Clock::now(), op);
        spans_.add("serve.admit", sent_at, accepted_at, op, root);
        spans_.add("serve.job", accepted_at, Clock::now(), op, root);
        return;
      }
    }
  }

  /// Next event within 30 s, or nothing (connection lost / timed out).
  static std::optional<JsonValue> wait_event(serve::Client& client) {
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(30);
    while (Clock::now() < deadline) {
      auto ev = client.next_event(100.0);
      if (ev.has_value()) return ev;
      if (client.eof()) return std::nullopt;
    }
    return std::nullopt;
  }

  const int port_;
  const int conns_;
  const ServeInputs& in_;
  const std::vector<Arrival>& schedule_;
  SpanRecorder& spans_;
  const std::int64_t op_base_;
  Clock::time_point start_{};

  std::mutex mu_;  // guards everything below
  std::condition_variable cv_;
  std::deque<std::size_t> ready_;
  bool dispatching_ = true;
  std::vector<Outcome> out_;
  std::vector<char> finished_;
};

std::unique_ptr<serve::Server> start_server(int threads) {
  serve::ServeOptions so;
  so.port = 0;
  so.workers = threads;
  // Resolves chain up to ~40 arrivals back; keep their designs resolvable.
  so.solution_store_cap = 64;
  // A connection sends a finished job's result only at its next progress
  // tick (Server::monitor); at the default 25 ms that wait was ~18 ms of a
  // ~51 ms median request, and it depends on tick phase, not on the work.
  so.progress_interval_ms = 5.0;
  auto server = std::make_unique<serve::Server>(so);
  server->start();
  return server;
}

/// Direct (in-process, cache-free) results of every distinct request, for
/// the bit-identical totals check and the layer replays.
struct DirectResults {
  std::vector<std::unique_ptr<Environment>> envs;
  std::map<std::pair<int, int>, SolveResult> results;  // (env, variant|-1)
  std::vector<std::shared_ptr<const Environment>> succ_envs;
};

const SolveResult& direct_result(const ServeInputs& in, int e, int v,
                                 DirectResults& d) {
  const auto key = std::make_pair(e, v);
  auto it = d.results.find(key);
  if (it != d.results.end()) return it->second;
  const auto ei = static_cast<std::size_t>(e);
  if (v < 0) {
    d.envs.push_back(
        std::make_unique<Environment>(environment_from_ini(in.ini[ei])));
    SolveRequest r;
    r.env = d.envs.back().get();
    r.options = in.options(in.design_seed[ei]);
    r.exec.deterministic = true;
    return d.results.emplace(key, solve(r)).first->second;
  }
  const SolveResult& base = direct_result(in, e, -1, d);
  if (!base.feasible) return base;  // reported by the caller's check
  const auto vi = static_cast<std::size_t>(v);
  const Environment& prev = base.best->env();
  const Environment next = environment_from_ini(in.succ[ei][vi]);
  ResolveRequest r;
  r.prev_env = &prev;
  r.prev_solution = &*base.best;
  r.delta = diff_environments(prev, next);
  r.options = in.options(in.resolve_seed[ei][vi]);
  r.exec.deterministic = true;
  ResolveResult out = resolve(r);
  d.succ_envs.push_back(out.env);
  return d.results.emplace(key, std::move(out.result)).first->second;
}

void run_serve(const RunOptions& opt, RunReport& report) {
  EndToEnd e2e;
  e2e.limit_ms = kServeLimitMs;
  ServeInputs in;
  std::vector<Arrival> schedule;
  std::unique_ptr<serve::Server> server;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    server.reset();
    in = make_serve_inputs();
    schedule = make_schedule(opt.seed, kServeRate,
                             opt.trace ? opt.seconds / 3.0 : opt.seconds);
    server = start_server(kLoadThreads);
    // Warm-up op: one design request of the first pool environment.
    const std::vector<Arrival> warm{Arrival{0.0, Arrival::Kind::Design, 0}};
    SpanRecorder unused;
    LoadGenerator gen(server->port(), 1, in, warm, unused, -1 - rep);
    if (!gen.run()[0].ok) report.fail_check("serve warm-up request failed");
    e2e.setup_ms.push_back(ms_between(t0, Clock::now()));
  }

  // The traced pass runs three phases on fresh servers: untraced, program
  // tracing on, benchmark spans on. The untraced pass runs the main phase,
  // then the rate ladder on the same server.
  struct Phase {
    std::vector<Arrival> schedule;
    std::vector<Outcome> out;
    std::vector<double> latency_ms() const {  // completed design/resolve
      std::vector<double> lat;
      for (std::size_t i = 0; i < schedule.size(); ++i) {
        if (out[i].ok && schedule[i].kind != Arrival::Kind::Stats) {
          lat.push_back(out[i].done - schedule[i].due_ms);
        }
      }
      return lat;
    }
  };
  std::vector<Phase> phases;
  std::vector<double> phase_p50, phase_run_p50;
  double cpu_ms = 0.0, wall_ms = 0.0;
  const auto run_phase = [&](std::vector<Arrival> sched, std::int64_t op_base) {
    LoadGenerator gen(server->port(), kLoadThreads, in, sched, report.spans,
                        op_base);
    std::vector<Outcome> out = gen.run();
    phases.push_back(Phase{std::move(sched), std::move(out)});
    return gen.start();
  };
  for (int phase = 0; phase < (opt.trace ? 3 : 1); ++phase) {
    if (phase > 0) server = start_server(kLoadThreads);
    if (phase == 1) obs::set_trace_enabled(true);
    report.spans.set_enabled(opt.trace && phase == 2);
    const double cpu0 = process_cpu_ms();
    const Clock::time_point start =
        run_phase(schedule, static_cast<std::int64_t>(phase) * 1000000);
    if (phase == 0) {
      cpu_ms = process_cpu_ms() - cpu0;
      wall_ms = ms_between(start, Clock::now());
      e2e.rss_mb = peak_rss_mb();
    }
    if (phase == 1) {
      obs::set_trace_enabled(false);
      obs::clear_trace();
    }
    phase_p50.push_back(p50(phases.back().latency_ms()));
    std::vector<double> run_ms;
    for (const Outcome& o : phases.back().out) {
      if (o.ok && o.run_ms > 0) run_ms.push_back(o.run_ms);
    }
    phase_run_p50.push_back(p50(run_ms));
  }
  report.spans.set_enabled(false);

  // max_rate_per_s: the highest rate, from the main phase up the ladder,
  // whose p95 latency stays within the limit and whose backlog does not
  // grow (the last quarter's median latency within 1.5x the first's).
  if (!opt.trace) {
    const auto sustained = [&](const Phase& ph, double rate, double q) {
      const std::vector<double> lat = ph.latency_ms();
      const std::size_t k = lat.size() / 4;
      if (k == 0) return false;
      const double first =
          p50(std::vector<double>(lat.begin(), lat.begin() + k));
      const double last = p50(std::vector<double>(lat.end() - k, lat.end()));
      const Percentile tail = percentile(lat, q);
      report.notes.push_back(
          "offered " + std::to_string(static_cast<int>(rate)) + " req/s: p50 " +
          std::to_string(p50(lat)) + " ms, p" +
          std::to_string(static_cast<int>(q * 100)) + " " +
          std::to_string(tail.value) + " ms (" + std::to_string(tail.beyond) +
          " beyond), last/first-quarter median " +
          std::to_string(first > 0 ? last / first : 0.0));
      return tail.value <= kServeLimitMs && last <= 1.5 * first;
    };
    double max_rate = sustained(phases[0], kServeRate, 0.95) ? kServeRate : 0.0;
    for (std::size_t k = 0; k < std::size(kLadderRates) && max_rate > 0; ++k) {
      run_phase(make_schedule(derive_seed(opt.seed, {0x1add, k}),
                              kLadderRates[k], kLadderStepS),
                static_cast<std::int64_t>(k + 1) * 1000000);
      if (!sustained(phases.back(), kLadderRates[k], 0.95)) break;
      max_rate = kLadderRates[k];
    }
    report.add("max_rate_per_s", max_rate, "1/s");
  }
  server.reset();

  // Output checks and per-request accounting (all phases).
  DirectResults direct;
  LayerSamples ls;
  std::vector<double> admit, deliver, queue, run, stats_ms, lag;
  long long rejected = 0, hits = 0, misses = 0;
  // Work counts as the server reported them in its result events.
  double nodes = 0.0, fanned = 0.0, counted = 0.0;
  for (std::size_t phase = 0; phase < phases.size(); ++phase) {
    const std::vector<Arrival>& sched = phases[phase].schedule;
    for (std::size_t i = 0; i < sched.size(); ++i) {
      const Arrival& a = sched[i];
      const Outcome& o = phases[phase].out[i];
      ++report.attempted;
      if (o.rejected) ++rejected;
      if (!o.ok) {
        ++report.failed;
        continue;
      }
      if (phase == 0) lag.push_back(o.sent - a.due_ms);
      if (a.kind == Arrival::Kind::Stats) {
        stats_ms.push_back(o.done - o.sent);
        continue;
      }
      const SolveResult& d = direct_result(
          in, a.env, a.kind == Arrival::Kind::Resolve ? a.variant : -1,
          direct);
      if (!d.feasible || d.cost.total() != o.total_cost) {
        report.fail_check("serve request " + std::to_string(i) +
                          ": total_cost differs from a direct solve");
        continue;
      }
      // The ladder's extent depends on timing; counts and design cost cover
      // the fixed-schedule phases only, so they depend on the seed alone.
      // Each request's design counts once, as the client received it.
      if (opt.trace || phase == 0) {
        counted += 1.0;
        nodes += static_cast<double>(o.nodes);
        fanned += o.fanned ? 1.0 : 0.0;
        e2e.design_costs.push_back(d.cost.total());
      }
      hits += o.hits;
      misses += o.misses;
      admit.push_back(o.accepted - o.sent);
      queue.push_back(o.queue_ms);
      run.push_back(o.run_ms);
      deliver.push_back((o.done - o.sent) - (o.accepted - o.sent) -
                        o.queue_ms - o.run_ms);
      if (phase == 0) {
        const double latency = o.done - a.due_ms;
        e2e.latency_ms.push_back(latency);
        if (latency <= kServeLimitMs) ++e2e.good;
      }
    }
  }
  for (auto& [key, r] : direct.results) {
    const std::string what = "serve env " + std::to_string(key.first) +
                             " variant " + std::to_string(key.second);
    if (!r.feasible) {
      report.fail_check(what + ": direct solve infeasible");
      continue;
    }
    check_design(*r.best, r.cost, /*full_eval=*/true, what, report);
  }
  // Generator lag: a request's send time minus its due time, which includes
  // waiting for a free connection. When the p99 request waits longer than
  // the whole latency limit just to be sent, the main phase measures the
  // load generator's 4 connections, not the server: the run is invalid.
  const Percentile lag99 = percentile(lag, 0.99);
  const std::string lag_note =
      "generator lag p99 " + std::to_string(lag99.value) + " ms (limit " +
      std::to_string(static_cast<int>(kServeLimitMs)) + " ms)";
  report.notes.push_back("serve: " + lag_note);
  if (lag99.value > kServeLimitMs) {
    report.fail_check("serve: run invalid: " + lag_note);
  }
  e2e.cpu_ms = cpu_ms;
  e2e.wall_ms = wall_ms;
  report.notes.push_back("serve: offered " +
                         std::to_string(static_cast<int>(kServeRate)) +
                         " req/s open loop, " + std::to_string(kLoadThreads) +
                         " connections, " + std::to_string(schedule.size()) +
                         " arrivals per phase");

  if (!opt.trace) {
    report_end_to_end(e2e, report);
    return;
  }
  // Layer replays: INI parse and lint on every request text, design-layer
  // calls on each distinct direct design.
  report.spans.set_enabled(true);
  std::int64_t op = 3000000;
  for (std::size_t i = 0; i < schedule.size(); ++i, ++op) {
    const Arrival& a = schedule[i];
    if (a.kind == Arrival::Kind::Stats) continue;
    const std::string& text =
        a.kind == Arrival::Kind::Design
            ? in.ini[static_cast<std::size_t>(a.env)]
            : in.succ[static_cast<std::size_t>(a.env)]
                     [static_cast<std::size_t>(a.variant)];
    ls.add("core.ini_parse_us",
           1000.0 * timed(report.spans, "core.ini_parse", op, -1,
                          [&] { environment_from_ini(text); }));
    ls.add("analysis.lint_us",
           1000.0 * timed(report.spans, "analysis.lint", op, -1, [&] {
             analysis::lint_environment_text(text, "<request>");
           }));
  }
  for (auto& [key, r] : direct.results) {
    if (r.feasible) {
      replay_design_layers(*r.best, r.cost, 7, op++, -1, report.spans, ls);
    }
  }
  measure_fan_dispatch(kLoadThreads, ls);
  // The other SolveResult counts are not in the result event: n/a on serve.
  report.add("solver.nodes_per_op", counted > 0 ? nodes / counted : 0.0,
             "count");
  report.add("engine.fanned_share", counted > 0 ? fanned / counted : 0.0,
             "ratio");
  report_layer_samples(ls, report);
  const long long requests = static_cast<long long>(queue.size());
  report.add("engine.cache_hit_ratio",
             hits + misses > 0 ? static_cast<double>(hits) / (hits + misses)
                               : 0.0,
             "ratio");
  report.add("engine.queue_wait_ms.p50", p50(queue), "ms");
  report.add("engine.queue_wait_ms.p99", percentile(queue, 0.99).value, "ms");
  report.add("engine.run_ms.p50", p50(run), "ms");
  report.add("serve.admit_ms.p50", p50(admit), "ms");
  report.add("serve.deliver_ms.p50", p50(deliver), "ms");
  report.add("serve.stats_ms.p50", p50(stats_ms), "ms");
  report.add("serve.rejected_share",
             report.attempted > 0
                 ? static_cast<double>(rejected) / report.attempted
                 : 0.0,
             "ratio");
  report.add("serve.generator_lag_ms.p99", lag99.value, "ms");
  // Program tracing runs inside the jobs: compare server run time, which
  // open-loop queueing does not amplify.
  report.add("obs.trace_overhead_ratio",
             phase_run_p50[0] > 0 ? phase_run_p50[1] / phase_run_p50[0] : 0.0,
             "ratio");
  report.add("bench.trace_overhead_ratio",
             phase_p50[0] > 0 ? phase_p50[2] / phase_p50[0] : 0.0, "ratio");
  // Replayed parse + lint, plus the server-reported queue wait and run time;
  // the rest is wire, admission and waiting for a free connection.
  const double explained_ms =
      (ls.med("core.ini_parse_us") + ls.med("analysis.lint_us")) / 1000.0 +
      p50(queue) + p50(run);
  report.add("bench.unattributed_share",
             phase_p50[0] > 0 ? 1.0 - explained_ms / phase_p50[0] : 0.0,
             "ratio");
  report.notes.push_back("serve: " + std::to_string(requests) +
                         " design/resolve results checked against direct "
                         "solves");
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "solve_serial", "solve_fan", "churn_resolve", "serve_stream"};
  return names;
}

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"core.ini_parse_us", "us"},
      {"core.apply_delta_us", "us"},
      {"analysis.lint_us", "us"},
      {"solver.nodes_per_op", "count"},
      {"solver.evaluations_per_op", "count"},
      {"solver.greedy_restarts_per_op", "count"},
      {"solver.config_solve_ms", "ms"},
      {"solver.reconfigure_us", "us"},
      {"solver.migrate_us", "us"},
      {"cost.scenarios_simulated_per_op", "count"},
      {"cost.scenario_reuse_ratio", "ratio"},
      {"cost.eval_full_ms", "ms"},
      {"cost.eval_incremental_us", "us"},
      {"model.enumerate_us", "us"},
      {"model.sim_us_per_scenario", "us"},
      {"model.sim_share_est", "ratio"},
      {"resources.place_remove_us", "us"},
      {"resources.check_feasible_us", "us"},
      {"engine.fan_dispatch_us", "us"},
      {"engine.refit_tasks_per_op", "count"},
      {"engine.refit_steals_per_op", "count"},
      {"engine.fanned_share", "ratio"},
      {"engine.min_fan_used", "count"},
      {"engine.parallel_efficiency", "ratio"},
      {"engine.cache_hit_ratio", "ratio"},
      {"engine.queue_wait_ms.p50", "ms"},
      {"engine.queue_wait_ms.p99", "ms"},
      {"engine.run_ms.p50", "ms"},
      {"serve.admit_ms.p50", "ms"},
      {"serve.deliver_ms.p50", "ms"},
      {"serve.stats_ms.p50", "ms"},
      {"serve.rejected_share", "ratio"},
      {"serve.generator_lag_ms.p99", "ms"},
      {"obs.trace_overhead_ratio", "ratio"},
      {"bench.trace_overhead_ratio", "ratio"},
      {"bench.unattributed_share", "ratio"},
  };
  return m;
}

void run_workload(const RunOptions& options, RunReport& report) {
  report.spans.set_enabled(options.trace);
  if (options.workload == "solve_serial") {
    run_solve(options, SolveShape{3, 8, 1}, report);
  } else if (options.workload == "solve_fan") {
    run_solve(options, SolveShape{4, 16, kLoadThreads}, report);
  } else if (options.workload == "churn_resolve") {
    run_churn(options, report);
  } else if (options.workload == "serve_stream") {
    run_serve(options, report);
  } else {
    throw InvalidArgument("unknown workload \"" + options.workload + "\"");
  }
}

}  // namespace perfbench
