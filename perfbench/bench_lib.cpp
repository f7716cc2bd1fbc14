#include "bench_lib.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/json.hpp"

namespace perfbench {

using depstor::derive_seed;
using depstor::Rng;

// ---------------------------------------------------------------- percentiles

Percentile percentile(std::vector<double> values, double q) {
  Percentile p;
  p.samples = values.size();
  if (values.empty()) return p;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  p.value = values[rank - 1];
  p.beyond = values.size() - rank;
  p.resolved = p.beyond >= kMinBeyond;
  return p;
}

std::size_t samples_needed(double q) {
  std::size_t n = 1;
  while (n - static_cast<std::size_t>(
                 std::ceil(q * static_cast<double>(n) - 1e-9)) <
         kMinBeyond) {
    ++n;
  }
  return n;
}

// ---------------------------------------------------------------------- spans

namespace {
std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}
}  // namespace

int SpanRecorder::begin(const std::string& name, std::int64_t op,
                        int parent) {
  if (!enabled_) return -1;
  const std::int64_t now = to_ns(Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, now, now, parent, op});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::end(int id) {
  if (id < 0) return;
  const std::int64_t now = to_ns(Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = now;
}

int SpanRecorder::add(const std::string& name, Clock::time_point start,
                      Clock::time_point end, std::int64_t op, int parent) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, to_ns(start), to_ns(end), parent, op});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string SpanRecorder::to_json() const {
  const std::vector<Span> all = spans();
  const std::vector<std::int64_t> self = self_times_ns(all);
  depstor::JsonWriter w;
  w.begin_object().key("traceEvents").begin_array();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    w.begin_object()
        .field("name", s.name)
        .field("ph", "X")
        .field("pid", 1)
        .field("tid", 1)
        .field("ts", static_cast<double>(s.start_ns) / 1000.0)
        .field("dur", static_cast<double>(s.end_ns - s.start_ns) / 1000.0)
        .key("args")
        .begin_object()
        .field("id", static_cast<long long>(i))
        .field("parent", s.parent)
        .field("op", static_cast<long long>(s.op))
        .field("self_us", static_cast<double>(self[i]) / 1000.0)
        .end_object()
        .end_object();
  }
  w.end_array().end_object();
  return w.str();
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) {
      children[static_cast<std::size_t>(s.parent)].push_back({lo, hi});
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = -1;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

// -------------------------------------------------------------- process probes

double process_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1000.0 +
           static_cast<double>(tv.tv_usec) / 1000.0;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// ------------------------------------------------------------ input generators

std::vector<Arrival> make_schedule(std::uint64_t seed, double rate_per_s,
                                   double duration_s) {
  Rng rng(derive_seed(seed, {0x5c4ed}));
  std::vector<Arrival> out;
  double t = 0.0;
  const double mean_gap_ms = 1000.0 / rate_per_s;
  for (int i = 0;; ++i) {
    t += -std::log(1.0 - rng.uniform()) * mean_gap_ms;
    if (t >= duration_s * 1000.0) break;
    Arrival a;
    a.due_ms = t;
    if ((i + 1) % kStatsEvery == 0) {
      a.kind = Arrival::Kind::Stats;
      out.push_back(a);
      continue;
    }
    a.env = static_cast<int>(
        rng.index(static_cast<std::size_t>(kServePool)));
    if (rng.chance(kResolveShare)) {
      // Chain on the most recent design of this environment at least
      // `kChainBack` arrivals back, so it has long completed by now.
      const int newest = static_cast<int>(out.size()) - kChainBack;
      for (int j = newest; j >= 0 && j > newest - kChainWindow; --j) {
        const Arrival& prev = out[static_cast<std::size_t>(j)];
        if (prev.kind == Arrival::Kind::Design && prev.env == a.env) {
          a.kind = Arrival::Kind::Resolve;
          a.ref = j;
          a.variant = static_cast<int>(
              rng.index(static_cast<std::size_t>(kServeVariants)));
          break;
        }
      }
    }
    out.push_back(a);
  }
  return out;
}

namespace {

struct GenApp {
  std::string name;
  std::string type;
  double outage = 0.0;
  double loss = 0.0;
  double size_gb = 0.0;
  double avg_update = 0.0;
  double peak_update = 0.0;
  double access = 0.0;
};

// Loosely the paper's Table 1 classes: banking, web, consumer, student.
struct AppTemplate {
  const char* type;
  double outage, loss, size_gb, avg_update, peak_update, access;
};
constexpr AppTemplate kTemplates[] = {
    {"B", 5e6, 5e6, 1300, 3.0, 28.0, 35.0},
    {"W", 5e5, 4e5, 1100, 1.5, 12.0, 20.0},
    {"C", 2e5, 8e5, 1700, 1.0, 8.0, 10.0},
    {"S", 5e3, 2e4, 400, 0.3, 2.0, 3.0},
};

GenApp gen_app(Rng& rng, const std::string& name) {
  const AppTemplate& t = kTemplates[rng.index(std::size(kTemplates))];
  const double s = rng.uniform(0.6, 1.4);
  GenApp a;
  a.name = name;
  a.type = t.type;
  a.outage = t.outage * rng.uniform(0.6, 1.4);
  a.loss = t.loss * rng.uniform(0.6, 1.4);
  a.size_gb = std::round(t.size_gb * s);
  a.avg_update = t.avg_update * s;
  a.peak_update = t.peak_update * s;
  a.access = t.access * s;
  return a;
}

std::vector<GenApp> gen_apps(std::uint64_t seed, int apps) {
  Rng rng(derive_seed(seed, {0xa995}));
  std::vector<GenApp> out;
  for (int i = 0; i < apps; ++i) {
    out.push_back(gen_app(rng, "app" + std::to_string(i)));
  }
  return out;
}

std::string render_ini(int sites, const std::vector<GenApp>& apps) {
  std::ostringstream os;
  os.precision(17);
  for (int s = 0; s < sites; ++s) {
    os << "[site]\nname = site" << s << "\nregion = " << (s % 2) << "\n\n";
  }
  for (int a = 0; a < sites; ++a) {
    for (int b = a + 1; b < sites; ++b) {
      os << "[link]\na = site" << a << "\nb = site" << b
         << "\nmax_links = 8\n\n";
    }
  }
  for (const GenApp& app : apps) {
    os << "[application]\nname = " << app.name << "\ntype = " << app.type
       << "\noutage_penalty_rate = " << app.outage
       << "\nloss_penalty_rate = " << app.loss
       << "\ndata_size_gb = " << app.size_gb
       << "\navg_update_mbps = " << app.avg_update
       << "\npeak_update_mbps = " << app.peak_update
       << "\navg_access_mbps = " << app.access << "\n\n";
  }
  os << "[failures]\ndata_object_rate = 0.5\ndisk_array_rate = 0.25\n"
        "site_disaster_rate = 0.05\nregional_disaster_rate = 0.01\n";
  return os.str();
}

// Three apps per site (two arrays each), one spare site; sized for one
// more app than the base so every successor fits the same topology.
int sites_for(int apps) { return std::max(2, (apps + 1 + 2) / 3 + 1); }

}  // namespace

std::string make_env_ini(std::uint64_t seed, int apps) {
  return render_ini(sites_for(apps), gen_apps(seed, apps));
}

std::string make_successor_ini(std::uint64_t seed, int apps,
                               std::uint64_t variant_seed) {
  std::vector<GenApp> list = gen_apps(seed, apps);
  Rng rng(derive_seed(variant_seed, {0x5acc}));
  const int op = rng.uniform_int(0, 2);
  if (op == 0 || list.size() <= 2) {
    list.push_back(gen_app(rng, "added" + std::to_string(variant_seed % 1000)));
  } else if (op == 1) {
    list.erase(list.begin() + static_cast<long>(rng.index(list.size())));
  } else {
    GenApp& app = list[rng.index(list.size())];
    app.size_gb = std::round(app.size_gb * rng.uniform(0.7, 1.3));
  }
  return render_ini(sites_for(apps), list);
}

depstor::EnvDelta make_drift_delta(const depstor::Environment& env, Rng& rng,
                                   int* next_name) {
  depstor::EnvDelta delta;
  std::vector<std::string> targeted;  // one change per app per step
  const auto untargeted = [&](const std::string& name) {
    return std::find(targeted.begin(), targeted.end(), name) == targeted.end();
  };
  const int ops = rng.uniform_int(1, 4);
  const int apps = static_cast<int>(env.apps.size());
  for (int i = 0; i < ops; ++i) {
    const int count = apps + static_cast<int>(delta.add.size()) -
                      static_cast<int>(delta.remove.size());
    const int op = rng.uniform_int(0, 2);
    if (op == 0 && count < 24) {
      depstor::ApplicationSpec added = env.apps[rng.index(env.apps.size())];
      added.name = "drift-" + std::to_string((*next_name)++);
      delta.add.push_back(added);
    } else if (op == 1 && count > 18) {
      const std::string& name = env.apps[rng.index(env.apps.size())].name;
      if (!untargeted(name)) continue;
      targeted.push_back(name);
      delta.remove.push_back(name);
    } else {
      depstor::ApplicationSpec resized = env.apps[rng.index(env.apps.size())];
      if (!untargeted(resized.name)) continue;
      targeted.push_back(resized.name);
      resized.data_size_gb = std::min(
          2000.0, std::max(50.0, resized.data_size_gb * rng.uniform(0.7, 1.3)));
      delta.resize.push_back(resized);
    }
  }
  return delta;
}

}  // namespace perfbench
