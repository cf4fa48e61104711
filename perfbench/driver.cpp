// perfbench driver: runs one workload's measurement protocol against the
// op2hpx libraries and prints its raw samples as one JSON object on the
// last line of stdout.  run.py builds this binary, generates its inputs
// from the seed, turns the samples into metrics and checks correctness.
//
//   perfbench_driver airfoil --imax N --jmax N --threads T --bump H
//       --order K --seconds S --setups N
//   perfbench_driver traced <airfoil args> <service args>
//       --service-jobs N --trace FILE
//
// Service args: --rate R --slo-ms L --ladder-lo R --ladder-step F
// --ladder-max R --step-jobs N.  The traced kind reads the Poisson
// schedule of its service phases on stdin, one "<gap> <tenant>" line
// per job, with the gaps at unit rate.
//
// The driver only calls the program's public functions and reads the
// counters it already exposes; every layer is measured from outside.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <tuple>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "airfoil/job.hpp"
#include "airfoil/kernels.hpp"
#include "airfoil/mesh.hpp"
#include "airfoil/sharded.hpp"
#include "airfoil/solver.hpp"
#include "hpxlite/async.hpp"
#include "hpxlite/dataflow.hpp"
#include "hpxlite/fork_join_team.hpp"
#include "hpxlite/parallel_algorithm.hpp"
#include "op2/op2.hpp"

namespace {

using clk = std::chrono::steady_clock;

double seconds_since(clk::time_point t0) {
  return std::chrono::duration<double>(clk::now() - t0).count();
}

template <typename F>
double time_s(F&& f) {
  const auto t0 = clk::now();
  f();
  return seconds_since(t0);
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------
// Command line

class options {
 public:
  options(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        throw std::invalid_argument(std::string("bad argument ") + argv[i]);
      }
      kv_[argv[i] + 2] = argv[i + 1];
    }
  }
  std::string str(const std::string& key, const std::string& fallback) const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? fallback : it->second;
  }
  double num(const std::string& key) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) {
      throw std::invalid_argument("missing --" + key);
    }
    return std::stod(it->second);
  }

 private:
  std::map<std::string, std::string> kv_;
};

// ---------------------------------------------------------------------
// JSON output: the driver emits one flat-ish object of named numbers
// and number arrays.

class json_object {
 public:
  void num(const std::string& key, double v) { fields_.emplace_back(key, fmt(v)); }
  void arr(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) {
        s += ',';
      }
      s += fmt(v[i]);
    }
    fields_.emplace_back(key, s + "]");
  }
  void obj(const std::string& key, const json_object& o) {
    fields_.emplace_back(key, o.text());
  }
  std::string text() const {
    std::string s = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i) {
        s += ',';
      }
      s += '"';
      s += fields_[i].first;
      s += "\":";
      s += fields_[i].second;
    }
    return s + "}";
  }

 private:
  static std::string fmt(double v) {
    if (!std::isfinite(v)) {
      return "null";
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }
  std::vector<std::pair<std::string, std::string>> fields_;
};

// ---------------------------------------------------------------------
// Tracing: spans (name, start, end, parent) recorded around each call
// into a layer, kept in memory and written at exit as Chrome
// trace-event JSON.  Off unless --trace names a file; toggled per round
// so the traced run can measure its own overhead.

struct span_record {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int id = 0;
  int parent = -1;
  int tid = 0;
};

class tracer {
 public:
  bool on = false;

  int begin(const char* name) {
    if (!on) {
      return -1;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    span_record r;
    r.name = name;
    r.start_us = now_us();
    r.id = static_cast<int>(spans_.size());
    r.parent = stack().empty() ? -1 : stack().back();
    r.tid = thread_index();
    spans_.push_back(std::move(r));
    stack().push_back(spans_.back().id);
    return spans_.back().id;
  }
  void end(int id) {
    if (id < 0) {
      return;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    if (!stack().empty()) {
      stack().pop_back();
    }
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
  }
  void write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}",
                    s.tid, s.start_us, s.end_us - s.start_us, s.id,
                    s.parent);
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\","
          << buf;
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  }

 private:
  static double now_us() {
    return std::chrono::duration<double, std::micro>(clk::now() - origin())
        .count();
  }
  static clk::time_point origin() {
    static const clk::time_point t0 = clk::now();
    return t0;
  }
  static std::vector<int>& stack() {
    thread_local std::vector<int> s;
    return s;
  }
  static int thread_index() {
    static std::atomic<int> next{0};
    thread_local const int idx = next.fetch_add(1);
    return idx;
  }
  mutable std::mutex mutex_;
  std::vector<span_record> spans_;
};

tracer g_trace;

class span {
 public:
  explicit span(const char* name) : id_(g_trace.begin(name)) {}
  ~span() { g_trace.end(id_); }
  span(const span&) = delete;
  span& operator=(const span&) = delete;

 private:
  int id_;
};

// ---------------------------------------------------------------------
// Host capacity probe: a fixed compute loop and a fixed-size triad, run
// in every invocation so a run on a slow host can be flagged.

volatile double g_sink;  // keeps the probes' results observable

double host_spin_ms() {
  std::uint64_t x = 88172645463325252ull;
  const auto t0 = clk::now();
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double ms = seconds_since(t0) * 1e3;
  g_sink = static_cast<double>(x);
  return ms;
}

double host_triad_gb_per_s() {
  // Three 32 MiB arrays: each is four times the host's 8 MiB of L2.
  const std::size_t n = std::size_t{4} << 20;
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  double best = 1e30;
  for (int pass = 0; pass < 5; ++pass) {
    const double s = time_s([&] {
      for (std::size_t i = 0; i < n; ++i) {
        a[i] = b[i] + 0.5 * c[i];
      }
    });
    best = std::min(best, s);
  }
  g_sink = a[n / 2];
  return 3.0 * 8.0 * static_cast<double>(n) / best / 1e9;
}

void host_probe(json_object& out) {
  json_object h;
  std::vector<double> spin, triad;
  for (int i = 0; i < 3; ++i) {
    spin.push_back(host_spin_ms());
    triad.push_back(host_triad_gb_per_s());
  }
  h.arr("spin_ms", spin);
  h.arr("triad_gb_per_s", triad);
  out.obj("host", h);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

/// Cumulative CPU time the hypervisor took from this VM ("steal", the
/// eighth number of /proc/stat's cpu line), in clock ticks; 0 where the
/// kernel does not report it.
double steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  in >> cpu;
  for (double& x : v) {
    in >> x;
  }
  return v[7];
}

/// The share of all CPUs' time stolen over an interval.  The host runs
/// several VMs; while it takes CPUs away, threaded arms slow down by up
/// to 4x, so run.py keeps the samples measured with the least steal.
class steal_meter {
 public:
  double share() const {
    const double s = seconds_since(t0_);
    static const double ticks_per_s =
        static_cast<double>(sysconf(_SC_CLK_TCK)) *
        std::max(1u, std::thread::hardware_concurrency());
    return s > 0.0 ? (steal_ticks() - ticks0_) / (s * ticks_per_s) : 0.0;
  }

 private:
  double ticks0_ = steal_ticks();
  clk::time_point t0_ = clk::now();
};

/// Samples with the steal share measured over each one.
struct series {
  std::vector<double> value, steal;

  template <typename F>
  void measure(F&& f) {
    const steal_meter m;
    value.push_back(f());
    steal.push_back(m.share());
  }
  json_object json() const {
    json_object o;
    o.arr("value", value);
    o.arr("steal", steal);
    return o;
  }
};

/// Runs a set-up n times and returns each one's seconds; the last
/// set-up is the one the run measures.  A fixed count, not a time
/// budget, so that the allocator sees the same history and the peak
/// RSS does not depend on how fast the host was.
template <typename F>
series repeat_setup(int n, F&& set_up_once) {
  series s;
  while (static_cast<int>(s.value.size()) < n) {
    s.measure(set_up_once);
  }
  return s;
}

// ---------------------------------------------------------------------
// Airfoil arms

struct arm {
  std::string name;     // metric suffix
  std::string backend;  // registry name
  unsigned threads = 1;
  bool reliable_wire = false;
  bool sharded() const { return backend == "hpx_shard"; }
};

op2::config config_for(const arm& a) {
  auto cfg = op2::make_config(a.backend, a.threads);
  cfg.wire = a.reliable_wire ? "reliable" : "";
  return cfg;
}

std::vector<arm> threaded_arms(unsigned t) {
  return {{"forkjoin", "forkjoin", t, false},
          {"foreach", "hpx_foreach", t, false},
          {"async", "hpx_async", t, false},
          {"dataflow", "hpx_dataflow", t, false},
          {"shard", "hpx_shard", t, false},
          {"shard_wire", "hpx_shard", t, true}};
}

/// One arm's solver state.  Shard arms run the sharded driver on a
/// decomposition built once in set-up (run_with_backend would rebuild
/// it on every call); the others run airfoil::run_with_backend.
struct arm_state {
  arm a;
  std::unique_ptr<airfoil::sim> sim;
  airfoil::shard_sim sd;

  void run(int niter) {
    span sp(a.sharded() ? "airfoil::run_sharded" : "airfoil::run_with_backend");
    if (a.sharded()) {
      airfoil::run_sharded(sd, niter);
    } else {
      airfoil::run_with_backend(*sim, niter, a.backend);
    }
  }
  std::vector<double> solution() const {
    if (a.sharded()) {
      return airfoil::gather_q(sd);
    }
    auto q = sim->p_q.data<double>();
    return {q.begin(), q.end()};
  }
};

void init_arm(const arm& a) {
  span sp("op2::init");
  op2::init(config_for(a));
}

airfoil::mesh_params mesh_params_for(const options& opt) {
  airfoil::mesh_params mp;
  mp.imax = static_cast<int>(opt.num("imax"));
  mp.jmax = static_cast<int>(opt.num("jmax"));
  mp.bump_height = opt.num("bump");
  return mp;
}

/// One arm over mesh `m`: its sim, op2::init for it, and for a shard
/// arm its decomposition (built after the init, which selects the wire).
arm_state make_arm(const op2::mesh& m, const arm& a) {
  arm_state st;
  st.a = a;
  {
    span sp("airfoil::make_sim");
    st.sim = std::make_unique<airfoil::sim>(airfoil::make_sim(m));
  }
  init_arm(a);
  if (a.sharded()) {
    span sp("airfoil::make_shard_sim");
    st.sd = airfoil::make_shard_sim(st.sim->mesh, static_cast<int>(a.threads));
  }
  return st;
}

/// Builds every arm: the mesh, one sim per arm, the shard
/// decompositions, and each arm's op2::init plus its first (capturing)
/// iteration.  This is everything setup_s times.
std::vector<arm_state> set_up_arms(const airfoil::mesh_params& mp,
                                   const std::vector<arm>& arms) {
  op2::mesh m;
  {
    span sp("airfoil::generate_mesh");
    m = airfoil::generate_mesh(mp);
  }
  std::vector<arm_state> states;
  for (const auto& a : arms) {
    states.push_back(make_arm(m, a));
    states.back().run(1);
  }
  return states;
}

constexpr int kWarmIters = 3;  // after each init: capture + tuner re-probe

/// One interleaved round: every arm, in rotated order, is initialised,
/// warmed and timed over `iters` iterations.
void run_round(std::vector<arm_state>& states, int round, int rotate,
               int iters, std::vector<series>& ips) {
  span sp("round");
  const std::size_t n = states.size();
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i =
        (k + static_cast<std::size_t>(round + rotate)) % n;
    auto& st = states[i];
    init_arm(st.a);
    st.run(kWarmIters);
    ips[i].measure([&] { return iters / time_s([&] { st.run(iters); }); });
  }
}

/// Iterations per timed segment: about 200 ms of the slowest arm, long
/// enough to average over the host's millisecond-scale noise.
int segment_iters(std::vector<arm_state>& states) {
  double slowest = 0.0;
  for (auto& st : states) {
    init_arm(st.a);
    slowest = std::max(slowest, time_s([&] { st.run(2); }) / 2.0);
  }
  return std::clamp(static_cast<int>(0.2 / slowest), 4, 2000);
}

/// The program's bit-exactness contract has two orders of accumulation:
/// seq and the sharded driver add res_calc's increments in element
/// order, the coloured backends in colour order.  Arms of one order
/// must agree bit for bit on the whole of q; across orders, q agrees to
/// rounding, which run.py checks on the checksums.
bool element_order(const arm& a) {
  return a.backend == "seq" || a.sharded();
}

void check_solutions(const std::vector<arm_state>& states, json_object& out) {
  std::vector<double> ok, sums;
  std::vector<double> ref[2];
  for (const auto& st : states) {
    const auto q = st.solution();
    auto& r = ref[element_order(st.a) ? 0 : 1];
    if (r.empty()) {
      r = q;
    }
    ok.push_back(q.size() == r.size() &&
                         std::memcmp(q.data(), r.data(),
                                     q.size() * sizeof(double)) == 0
                     ? 1.0
                     : 0.0);
    sums.push_back(std::accumulate(q.begin(), q.end(), 0.0));
  }
  out.arr("bitwise_ok", ok);
  out.arr("checksum", sums);
}

// ---------------------------------------------------------------------
// Replica driver: run_classic's five unfused op_par_loop calls per
// stage, each timed.  Fusion is bit-identical, so the replica must
// reproduce run_with_backend's q exactly on the synchronous backends.

constexpr const char* kLoops[5] = {"save_soln", "adt_calc", "res_calc",
                                   "bres_calc", "update"};

struct replica {
  op2::loop_handle h[5];
  std::vector<double> ms[5];

  void iteration(airfoil::sim& s) {
    using namespace op2;
    auto timed = [&](int l, auto&& f) {
      span sp(kLoops[l]);
      ms[l].push_back(time_s(f) * 1e3);
    };
    timed(0, [&] {
      op_par_loop(h[0], airfoil::save_soln, "save_soln", s.cells,
                  op_arg_dat<double>(s.p_q, -1, OP_ID, 4, OP_READ),
                  op_arg_dat<double>(s.p_qold, -1, OP_ID, 4, OP_WRITE));
    });
    for (int k = 0; k < 2; ++k) {
      double rms = 0.0;
      timed(1, [&] {
        op_par_loop(h[1], airfoil::adt_calc, "adt_calc", s.cells,
                    op_arg_dat<double>(s.p_x, 0, s.pcell, 2, OP_READ),
                    op_arg_dat<double>(s.p_x, 1, s.pcell, 2, OP_READ),
                    op_arg_dat<double>(s.p_x, 2, s.pcell, 2, OP_READ),
                    op_arg_dat<double>(s.p_x, 3, s.pcell, 2, OP_READ),
                    op_arg_dat<double>(s.p_q, -1, OP_ID, 4, OP_READ),
                    op_arg_dat<double>(s.p_adt, -1, OP_ID, 1, OP_WRITE));
      });
      timed(2, [&] {
        op_par_loop(h[2], airfoil::res_calc, "res_calc", s.edges,
                    op_arg_dat<double>(s.p_x, 0, s.pedge, 2, OP_READ),
                    op_arg_dat<double>(s.p_x, 1, s.pedge, 2, OP_READ),
                    op_arg_dat<double>(s.p_q, 0, s.pecell, 4, OP_READ),
                    op_arg_dat<double>(s.p_q, 1, s.pecell, 4, OP_READ),
                    op_arg_dat<double>(s.p_adt, 0, s.pecell, 1, OP_READ),
                    op_arg_dat<double>(s.p_adt, 1, s.pecell, 1, OP_READ),
                    op_arg_dat<double>(s.p_res, 0, s.pecell, 4, OP_INC),
                    op_arg_dat<double>(s.p_res, 1, s.pecell, 4, OP_INC));
      });
      timed(3, [&] {
        op_par_loop(h[3], airfoil::bres_calc, "bres_calc", s.bedges,
                    op_arg_dat<double>(s.p_x, 0, s.pbedge, 2, OP_READ),
                    op_arg_dat<double>(s.p_x, 1, s.pbedge, 2, OP_READ),
                    op_arg_dat<double>(s.p_q, 0, s.pbecell, 4, OP_READ),
                    op_arg_dat<double>(s.p_adt, 0, s.pbecell, 1, OP_READ),
                    op_arg_dat<double>(s.p_res, 0, s.pbecell, 4, OP_INC),
                    op_arg_dat<int>(s.p_bound, -1, OP_ID, 1, OP_READ));
      });
      timed(4, [&] {
        op_par_loop(h[4], airfoil::update, "update", s.cells,
                    op_arg_dat<double>(s.p_qold, -1, OP_ID, 4, OP_READ),
                    op_arg_dat<double>(s.p_q, -1, OP_ID, 4, OP_WRITE),
                    op_arg_dat<double>(s.p_res, -1, OP_ID, 4, OP_RW),
                    op_arg_dat<double>(s.p_adt, -1, OP_ID, 1, OP_READ),
                    op_arg_gbl<double>(&rms, 1, OP_INC));
      });
    }
  }
};

/// Each loop's set size and argument shapes, for the computed-bytes
/// arithmetic in run.py: [set, then per arg: dim, bytes per value,
/// access (0 read, 1 write, 2 read-write/inc), map arity (0 direct)].
json_object loop_shapes(const airfoil::sim& s) {
  json_object o;
  const double nc = s.cells.size(), ne = s.edges.size(),
               nb = s.bedges.size();
  o.arr("save_soln", {nc, 4, 8, 0, 0, 4, 8, 1, 0});
  o.arr("adt_calc", {nc, 2, 8, 0, 4, 2, 8, 0, 4, 2, 8, 0, 4, 2, 8, 0, 4,
                     4, 8, 0, 0, 1, 8, 1, 0});
  o.arr("res_calc", {ne, 2, 8, 0, 2, 2, 8, 0, 2, 4, 8, 0, 2, 4, 8, 0, 2,
                     1, 8, 0, 2, 1, 8, 0, 2, 4, 8, 2, 2, 4, 8, 2, 2});
  o.arr("bres_calc", {nb, 2, 8, 0, 2, 2, 8, 0, 2, 4, 8, 0, 1, 1, 8, 0, 1,
                      4, 8, 2, 1, 1, 4, 0, 0});
  o.arr("update", {nc, 4, 8, 0, 0, 4, 8, 1, 0, 4, 8, 2, 0, 1, 8, 0, 0});
  return o;
}

bool same_bits(const airfoil::sim& a, const airfoil::sim& b) {
  auto qa = a.p_q.data<double>();
  auto qb = b.p_q.data<double>();
  return qa.size() == qb.size() &&
         std::memcmp(qa.data(), qb.data(), qa.size() * sizeof(double)) == 0;
}

// ---------------------------------------------------------------------
// Launch and hpxlite primitives

void empty_kernel(const double*) {}
void empty_kernel2(const double*) {}

/// Median microseconds per call of `f`, over batches of `per_batch`.
template <typename F>
double per_call_us(F&& f, int batches, int per_batch) {
  for (int i = 0; i < per_batch; ++i) {
    f();  // warm
  }
  std::vector<double> us;
  for (int b = 0; b < batches; ++b) {
    const double s = time_s([&] {
      for (int i = 0; i < per_batch; ++i) {
        f();
      }
    });
    us.push_back(s * 1e6 / per_batch);
  }
  return median(us);
}

void launch_probe(unsigned t, json_object& out) {
  const int block = op2::make_config("seq").block_size;
  op2::op_set set = op2::op_decl_set(block, "lp_set");
  op2::op_dat x = op2::op_decl_dat<double>(set, 1, "double", "lp_x");
  auto arg = [&] {
    return op2::op_arg_dat<double>(x, -1, op2::OP_ID, 1, op2::OP_READ);
  };
  const std::pair<const char*, const char*> backends[] = {
      {"seq", "seq"},
      {"forkjoin", "forkjoin"},
      {"foreach", "hpx_foreach"},
      {"async", "hpx_async"},
      {"dataflow", "hpx_dataflow"}};
  for (const auto& [name, backend] : backends) {
    span sp("launch.replay");
    op2::init(op2::make_config(backend, std::string(backend) == "seq" ? 1 : t));
    double us = 0.0;
    if (std::string(backend) == "hpx_dataflow") {
      op2::op_dat_df xdf(x);
      us = per_call_us(
          [&] {
            op2::op_par_loop(empty_kernel, "lp_df", set,
                             op2::op_arg_dat1<double>(xdf, -1, op2::OP_ID, 1,
                                                      op2::OP_READ))
                .get();
          },
          15, 200);
    } else if (std::string(backend) == "hpx_async") {
      op2::loop_handle h;
      us = per_call_us(
          [&] { op2::op_par_loop_async(h, empty_kernel, "lp_async", set, arg()).get(); },
          15, 200);
    } else {
      op2::loop_handle h;
      us = per_call_us(
          [&] { op2::op_par_loop(h, empty_kernel, "lp_sync", set, arg()); },
          15, 200);
    }
    out.num(std::string("launch.replay_us.") + name, us);
  }

  op2::init(op2::make_config("seq"));
  std::vector<double> capture;
  for (int i = 0; i < 200; ++i) {
    op2::loop_handle h;
    capture.push_back(
        time_s([&] { op2::op_par_loop(h, empty_kernel, "lp_capture", set, arg()); }) *
        1e6);
  }
  out.num("launch.capture_us", median(capture));
  op2::fused_handle fh;
  out.num("launch.fused_replay_us",
          per_call_us(
              [&] {
                op2::op_par_loop_fused(
                    fh, set, op2::fuse_loop(empty_kernel, "lp_f1", arg()),
                    op2::fuse_loop(empty_kernel2, "lp_f2", arg()));
              },
              15, 200));
}

void hpxlite_probe(unsigned t, json_object& out) {
  span sp("hpxlite");
  op2::init(op2::make_config("hpx_foreach", t));
  out.num("hpxlite.async_get_us",
          per_call_us([] { hpxlite::async([] {}).get(); }, 15, 500));
  out.num("hpxlite.dataflow_us",
          per_call_us(
              [] {
                hpxlite::dataflow(
                    hpxlite::unwrapping([](int a, int b, int c, int d) {
                      return a + b + c + d;
                    }),
                    hpxlite::make_ready_future(1), hpxlite::make_ready_future(2),
                    hpxlite::make_ready_future(3), hpxlite::make_ready_future(4))
                    .get();
              },
              15, 500));
  std::vector<int> items(256, 0);
  out.num("hpxlite.for_each_us",
          per_call_us(
              [&] {
                hpxlite::parallel::for_each(hpxlite::par, items.begin(),
                                            items.end(), [](int&) {});
              },
              15, 200));
  hpxlite::fork_join_team team(t);
  out.num("hpxlite.team_barrier_us",
          per_call_us(
              [&] { team.parallel_for(t, [](std::size_t, std::size_t) {}); },
              15, 500));
}

// ---------------------------------------------------------------------
// Plan, exchange, tuner and capture probes

void plan_probe(const airfoil::sim& s, json_object& out) {
  span sp("op2::build_plan");
  const int block = op2::make_config("seq").block_size;
  const op2::plan_indirection res[] = {{s.pecell, 0, s.p_res.id()},
                                       {s.pecell, 1, s.p_res.id()}};
  const op2::plan_indirection bres[] = {{s.pbecell, 0, s.p_res.id()}};
  const auto pa = op2::build_plan(s.cells, block, std::span<const op2::plan_indirection>{});
  const auto pb = op2::build_plan(s.bedges, block, std::span(bres));
  std::vector<double> build_ms;
  op2::op_plan pr;
  for (int i = 0; i < 7; ++i) {
    build_ms.push_back(time_s([&] { pr = op2::build_plan(s.edges, block, std::span(res)); }) * 1e3);
  }
  out.num("plan.adt_calc.colours", pa.ncolors);
  out.num("plan.adt_calc.blocks", pa.nblocks);
  out.num("plan.res_calc.colours", pr.ncolors);
  out.num("plan.res_calc.blocks", pr.nblocks);
  out.num("plan.bres_calc.colours", pb.ncolors);
  out.num("plan.bres_calc.blocks", pb.nblocks);
  out.num("plan.build_ms", median(build_ms));
}

void exchange_probe(const op2::mesh& m, unsigned t, json_object& out) {
  for (const bool reliable : {false, true}) {
    span sp("op2::halo_exchanger");
    const arm a{"exchange", "hpx_shard", t, reliable};
    op2::init(config_for(a));
    auto sd = airfoil::make_shard_sim(m, static_cast<int>(t));
    auto round = [&] {
      sd.xq->exchange();
      for (int s = 0; s < static_cast<int>(sd.shards.size()); ++s) {
        sd.xq->fence(s).wait();
      }
    };
    const auto before = sd.xq->wire_stats();
    const std::uint64_t r0 = sd.xq->rounds();
    const double us = per_call_us(round, 9, 40);
    const double rounds = static_cast<double>(sd.xq->rounds() - r0);
    out.num(reliable ? "exchange.round_us.reliable" : "exchange.round_us.raw", us);
    if (reliable) {
      const auto after = sd.xq->wire_stats();
      out.num("exchange.frames_per_round",
              static_cast<double>(after.frames_sent - before.frames_sent) / rounds);
      out.num("exchange.retransmits",
              static_cast<double>(after.retransmits - before.retransmits));
    } else {
      double halo = 0.0;
      for (const auto& part : sd.hp->shards) {
        halo += part.halo_count();
      }
      out.num("exchange.halo_rows", halo);
    }
  }
}

/// Runs each listed arm with profiling on and reads the program's own
/// counters: tuner states per loop, and the shard table.
void counters_probe(const op2::mesh& m, unsigned t, int iters,
                    json_object& out) {
  span sp("op2::profiling");
  op2::profiling::enable(true);
  double probing = 0.0, converged = 0.0;
  for (const auto& a : threaded_arms(t)) {
    if (a.name == "forkjoin" || a.reliable_wire) {
      continue;
    }
    op2::profiling::reset();
    arm_state st = make_arm(m, a);
    if (a.sharded()) {
      st.run(1 + kWarmIters + iters);
      st.sd.xq->flush_stats();
      double exch = 0.0, overlap = 0.0, blocked = 0.0;
      const auto shards = op2::profiling::shard_snapshot();
      for (const auto& [id, p] : shards) {
        exch += p.exchange_seconds;
        overlap += p.overlap_seconds;
        blocked += p.blocked_seconds;
      }
      out.num("exchange.overlap_frac", exch > 0.0 ? overlap / exch : 0.0);
      out.num("exchange.blocked_ms_per_iter",
              blocked * 1e3 / std::max<double>(1.0, shards.size()) /
                  (1 + kWarmIters + iters));
      continue;
    }
    st.run(1 + kWarmIters + iters);
    for (const auto& [loop, p] : op2::profiling::snapshot()) {
      probing += p.tuner_state == "probing";
      converged += p.tuner_state == "converged";
    }
  }
  out.num("tuner.probing_loops", probing);
  out.num("tuner.converged_loops", converged);
  op2::profiling::enable(false);
}

/// First iteration after op2::init versus the steady iteration, per arm.
void capture_probe(const op2::mesh& m, const std::vector<arm>& arms,
                   json_object& out) {
  for (const auto& a : arms) {
    span sp("capture");
    arm_state st = make_arm(m, a);
    std::vector<double> ms;
    for (int rep = 0; rep < 3; ++rep) {
      init_arm(a);
      for (int i = 0; i < 6; ++i) {
        ms.push_back(time_s([&] { st.run(1); }) * 1e3);
      }
    }
    out.arr("capture_ms." + a.name, ms);
  }
}

// ---------------------------------------------------------------------
// Service: an open loop on a Poisson schedule.

struct schedule {
  std::vector<double> gap;  // unit-rate inter-arrival gaps
  std::vector<int> tenant;
};

schedule read_schedule(std::istream& in) {
  schedule s;
  double g = 0.0;
  int t = 0;
  while (in >> g >> t) {
    s.gap.push_back(g);
    s.tenant.push_back(t);
  }
  if (s.gap.empty()) {
    throw std::runtime_error("empty schedule on stdin");
  }
  return s;
}

constexpr int kTenants = 4;

struct service_rig {
  std::unique_ptr<op2::service::job_service> svc;
  std::vector<std::unique_ptr<airfoil::job_workspace>> spaces;
  double reference = 0.0;
  airfoil::job_params params;
};

/// Everything before the first submission: runtime, service, tenants,
/// workspaces and the reference job's checksum.
void set_up_service(service_rig& rig) {
  op2::init(op2::make_config("hpx_foreach", 2));
  op2::service::service_config cfg;
  cfg.workers = 2;
  rig.svc = std::make_unique<op2::service::job_service>(cfg);
  for (int t = 0; t < kTenants; ++t) {
    op2::service::tenant_options o;
    o.name = "tenant-" + std::to_string(t);
    o.quota = 1;
    rig.svc->register_tenant(o);
    rig.spaces.push_back(std::make_unique<airfoil::job_workspace>());
  }
  airfoil::job_workspace ref_space;
  rig.reference = airfoil::run_job(rig.params, ref_space, {}).checksum;
}

struct phase_result {
  std::vector<double> latency_ms;  // due -> completion, in due order
  std::vector<double> submit_us, queue_ms, run_ms, lag_ms;
  double attempted = 0, failed = 0, shed = 0, wrong = 0, retries = 0;
  double offered = 0.0;  // jobs/s
  double completed_per_s = 0.0;
  double drain_ms = 0.0;  // last due -> last completion
  double wall_s = 0.0;
  /// Steal share of each 100 ms window of due times, and each job's
  /// window, so run.py can keep the jobs due while the VM had its CPUs.
  /// A window is short enough that one stolen time slice shows in it.
  std::vector<double> window_steal, job_window;
};

/// Submits `njobs` jobs at `rate` from schedule position `pos`, waits
/// for all of them, and returns what they measured.
phase_result run_phase(service_rig& rig, const schedule& sch,
                       std::size_t& pos, double rate, std::size_t njobs) {
  phase_result r;
  r.offered = rate;
  std::vector<op2::service::job_handle> handles(njobs);
  std::vector<double> sums(njobs, 0.0);
  std::vector<double> late_s(njobs, 0.0);
  const auto before = rig.svc->stats();
  const auto start = clk::now() + std::chrono::milliseconds(2);
  clk::time_point last_due = start;
  double t = 0.0;
  steal_meter window;
  long window_index = 0;
  for (std::size_t i = 0; i < njobs; ++i, ++pos) {
    t += sch.gap[pos % sch.gap.size()] / rate;
    if (static_cast<long>(t * 10.0) != window_index) {
      r.window_steal.push_back(window.share());
      window = steal_meter{};
      window_index = static_cast<long>(t * 10.0);
    }
    r.job_window.push_back(static_cast<double>(r.window_steal.size()));
    last_due = start + std::chrono::duration_cast<clk::duration>(
                           std::chrono::duration<double>(t));
    std::this_thread::sleep_until(last_due);
    const auto sub = clk::now();
    late_s[i] = std::chrono::duration<double>(sub - last_due).count();
    const int tenant = sch.tenant[pos % sch.tenant.size()];
    auto* ws = rig.spaces[static_cast<std::size_t>(tenant)].get();
    double* sum = &sums[i];
    {
      span sp("service::submit");
      handles[i] = rig.svc->submit(
          "tenant-" + std::to_string(tenant),
          [&rig, ws, sum](const op2::service::job_context& ctx) {
            *sum = airfoil::run_job(rig.params, *ws, ctx.stop).checksum;
          });
    }
    r.submit_us.push_back(seconds_since(sub) * 1e6);
    r.lag_ms.push_back(late_s[i] * 1e3);
  }
  r.window_steal.push_back(window.share());
  for (std::size_t i = 0; i < njobs; ++i) {
    const auto res = handles[i].get();
    r.attempted += 1;
    if (res.status == op2::service::job_status::completed) {
      r.latency_ms.push_back(
          (late_s[i] + res.queue_wait_seconds + res.run_seconds) * 1e3);
      r.queue_ms.push_back(res.queue_wait_seconds * 1e3);
      r.run_ms.push_back(res.run_seconds * 1e3);
      if (sums[i] != rig.reference) {
        r.wrong += 1;
        r.failed += 1;
      }
    } else {
      // A shed or failed job misses any latency limit.
      r.latency_ms.push_back(INFINITY);
      r.failed += 1;
      r.shed += res.status == op2::service::job_status::shed;
    }
  }
  const auto end = clk::now();
  r.drain_ms = std::chrono::duration<double>(end - last_due).count() * 1e3;
  r.wall_s = std::chrono::duration<double>(end - start).count();
  r.completed_per_s = static_cast<double>(njobs) / r.wall_s;
  for (const auto& [name, ts] : rig.svc->stats().tenants) {
    r.retries += static_cast<double>(ts.job_retries -
                                     before.tenants.at(name).job_retries);
  }
  return r;
}

void append(phase_result& into, const phase_result& r) {
  auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  cat(into.latency_ms, r.latency_ms);
  cat(into.submit_us, r.submit_us);
  cat(into.queue_ms, r.queue_ms);
  cat(into.run_ms, r.run_ms);
  cat(into.lag_ms, r.lag_ms);
  for (const double w : r.job_window) {
    into.job_window.push_back(w + static_cast<double>(into.window_steal.size()));
  }
  cat(into.window_steal, r.window_steal);
  into.attempted += r.attempted;
  into.failed += r.failed;
  into.shed += r.shed;
  into.wrong += r.wrong;
  into.retries += r.retries;
  into.offered = r.offered;
  into.wall_s += r.wall_s;
  into.completed_per_s = into.attempted / into.wall_s;
  into.drain_ms = std::max(into.drain_ms, r.drain_ms);
}

json_object phase_json(const phase_result& r) {
  json_object o;
  o.num("offered", r.offered);
  o.num("completed_per_s", r.completed_per_s);
  o.num("drain_ms", r.drain_ms);
  o.num("wall_s", r.wall_s);
  o.num("attempted", r.attempted);
  o.num("failed", r.failed);
  o.num("shed", r.shed);
  o.num("wrong", r.wrong);
  o.num("retries", r.retries);
  o.arr("latency_ms", r.latency_ms);
  o.arr("window_steal", r.window_steal);
  o.arr("job_window", r.job_window);
  return o;
}

struct service_params {
  double rate = 0.0;        // fixed offered rate, jobs/s
  double slo_ms = 0.0;      // p99 limit
  double ladder_lo = 0.0;   // first SLO-search rate
  double ladder_step = 0.0; // rate ratio between steps
  double ladder_max = 0.0;
  std::size_t step_jobs = 0;
};

service_params service_params_for(const options& opt) {
  service_params p;
  p.rate = opt.num("rate");
  p.slo_ms = opt.num("slo-ms");
  p.ladder_lo = opt.num("ladder-lo");
  p.ladder_step = opt.num("ladder-step");
  p.ladder_max = opt.num("ladder-max");
  p.step_jobs = static_cast<std::size_t>(opt.num("step-jobs"));
  return p;
}

/// The SLO search: the highest rate whose p99 meets the limit with no
/// shedding and no growing backlog, by bisection over the geometric
/// rate grid ladder_lo * ladder_step^k.  A step passes when no job was
/// shed, failed or wrong, at most 1% of jobs exceeded the limit, and
/// the backlog drained within the limit after the last due time.  The
/// grid's lowest rate is tested last if no step passed.
json_object slo_search(service_rig& rig, const schedule& sch, std::size_t& pos,
                       const service_params& p) {
  json_object ladder;
  int lo = -1;  // highest passing grid index found
  int hi = static_cast<int>(
      std::floor(std::log(p.ladder_max / p.ladder_lo) / std::log(p.ladder_step)));
  int steps = 0;
  auto probe = [&](int k) {
    span sp("service::slo_step");
    const double r = p.ladder_lo * std::pow(p.ladder_step, k);
    const auto res = run_phase(rig, sch, pos, r, p.step_jobs);
    const auto over =
        std::count_if(res.latency_ms.begin(), res.latency_ms.end(),
                      [&](double v) { return !(v <= p.slo_ms); });
    char key[16];
    std::snprintf(key, sizeof key, "step%02d", steps++);
    json_object o = phase_json(res);
    o.num("grid", k);
    ladder.obj(key, o);
    return res.failed == 0 && static_cast<double>(over) <= 0.01 * res.attempted &&
           res.drain_ms <= p.slo_ms;
  };
  int lo_bound = 0;
  while (hi - lo_bound > 1) {
    const int mid = (lo_bound + hi) / 2;
    if (probe(mid)) {
      lo = lo_bound = mid;
    } else {
      hi = mid;
    }
  }
  if (lo < 0) {
    probe(0);
  }
  return ladder;
}

series set_up_service_repeatedly(service_rig& rig) {
  return repeat_setup(50, [&] {
    rig.svc.reset();
    rig.spaces.clear();
    return time_s([&] { set_up_service(rig); });
  });
}

// ---------------------------------------------------------------------
// Airfoil workloads

std::vector<arm> workload_arms(unsigned t) {
  std::vector<arm> arms{{"seq", "seq", 1, false}};
  for (const auto& a : threaded_arms(t)) {
    arms.push_back(a);
  }
  return arms;
}

int run_airfoil(const options& opt) {
  const auto mp = mesh_params_for(opt);
  const auto t = static_cast<unsigned>(opt.num("threads"));
  const double seconds = opt.num("seconds");
  const int rotate = static_cast<int>(opt.num("order"));

  json_object out;

  std::vector<arm_state> states;
  out.obj("setup_s", repeat_setup(static_cast<int>(opt.num("setups")), [&] {
            states.clear();
            return time_s([&] { states = set_up_arms(mp, workload_arms(t)); });
          }).json());
  const int iters = segment_iters(states);
  const auto t0 = clk::now();
  std::vector<series> ips(states.size());
  int rounds = 0;
  while (rounds < 5 || seconds_since(t0) < seconds) {
    run_round(states, rounds, rotate, iters, ips);
    ++rounds;
  }
  json_object arm_ips;
  for (std::size_t i = 0; i < states.size(); ++i) {
    arm_ips.obj(states[i].a.name, ips[i].json());
  }
  out.obj("iters_per_s", arm_ips);
  out.num("segment_iters", iters);
  out.num("rounds", rounds);
  check_solutions(states, out);
  states.clear();
  out.num("peak_rss_mb", peak_rss_mb());
  host_probe(out);  // after the RSS reading: its arrays are not the workload's
  op2::finalize();
  std::printf("%s\n", out.text().c_str());
  return 0;
}

// ---------------------------------------------------------------------
// Traced run: every layer, on the workload's own problem where the
// layer has one (the Airfoil mesh and thread count; the service's job
// mesh at its pool's 2 threads), plus the fixed-rate service phase.

void airfoil_layers(const airfoil::mesh_params& mp, unsigned t, int rotate,
                    double seconds, json_object& out, json_object& layer) {
  op2::mesh m;
  layer.num("setup.mesh_s", time_s([&] { m = airfoil::generate_mesh(mp); }));
  airfoil::sim probe_sim;
  layer.num("setup.sim_s", time_s([&] { probe_sim = airfoil::make_sim(m); }));
  {
    op2::init(op2::make_config("hpx_shard", t));
    airfoil::shard_sim sd;
    layer.num("setup.shard_s", time_s([&] {
                sd = airfoil::make_shard_sim(m, static_cast<int>(t));
              }));
  }
  out.obj("loop_shapes", loop_shapes(probe_sim));
  plan_probe(probe_sim, layer);
  capture_probe(m, workload_arms(t), out);

  // Replica: per-loop times on seq (kernel) and at T on the synchronous
  // threaded backends, each checked bit for bit against
  // run_with_backend on a fresh sim.
  const int replica_iters =
      std::max(10, static_cast<int>(2e6 / (mp.imax * mp.jmax)));
  std::vector<double> equivalent;
  const std::tuple<const char*, const char*, unsigned> replicas[] = {
      {"seq", "seq", 1u}, {"forkjoin", "forkjoin", t},
      {"foreach", "hpx_foreach", t}};
  json_object loop_ms;
  for (const auto& [label, backend, threads] : replicas) {
    span sp("replica");
    op2::init(op2::make_config(backend, threads));
    airfoil::sim a = airfoil::make_sim(m), b = airfoil::make_sim(m);
    replica r;
    for (int i = 0; i < replica_iters; ++i) {
      r.iteration(a);
    }
    airfoil::run_with_backend(b, replica_iters, backend);
    equivalent.push_back(same_bits(a, b) ? 1.0 : 0.0);
    json_object loops;
    for (int l = 0; l < 5; ++l) {
      // Drop each loop's capturing first iteration.
      const std::size_t skip = l == 0 ? 1 : 2;
      loops.arr(kLoops[l],
                std::vector<double>(r.ms[l].begin() + skip, r.ms[l].end()));
    }
    loop_ms.obj(label, loops);
  }
  out.obj("loop_ms", loop_ms);
  out.arr("replica_equivalent", equivalent);

  launch_probe(t, layer);
  hpxlite_probe(t, layer);
  exchange_probe(m, t, layer);

  // Interleaved sweep: seq plus every threaded arm at 2 and 4 threads,
  // rounds alternating tracing on and off for the overhead figure.
  std::vector<arm> sweep{{"seq", "seq", 1, false}};
  for (const unsigned threads : {2u, 4u}) {
    for (auto a : threaded_arms(threads)) {
      a.name += ".t" + std::to_string(threads);
      sweep.push_back(a);
    }
  }
  std::vector<arm_state> states = set_up_arms(mp, sweep);
  const int iters = segment_iters(states);
  std::vector<series> ips(states.size());
  std::vector<double> traced_s, untraced_s;
  const auto t0 = clk::now();
  for (int round = 0;
       round < 4 || (round < 10 && seconds_since(t0) < seconds); ++round) {
    g_trace.on = round % 2 == 1;
    (g_trace.on ? traced_s : untraced_s).push_back(time_s([&] {
      run_round(states, round, rotate, iters, ips);
    }));
  }
  g_trace.on = true;
  json_object sweep_ips;
  for (std::size_t i = 0; i < states.size(); ++i) {
    sweep_ips.obj(states[i].a.name, ips[i].json());
  }
  {
    json_object check;
    check_solutions(states, check);
    out.obj("sweep_check", check);
  }
  states.clear();
  out.obj("sweep_iters_per_s", sweep_ips);
  out.num("threads", t);
  out.arr("traced_round_s", traced_s);
  out.arr("untraced_round_s", untraced_s);

  counters_probe(m, t, iters, layer);
}

int run_traced(const options& opt, const schedule& sch) {
  const auto mp = mesh_params_for(opt);
  const auto t = static_cast<unsigned>(opt.num("threads"));
  const auto p = service_params_for(opt);
  const std::string path = opt.str("trace", "");

  json_object out, layer;
  // The service phases first, in a fresh process: the fixed rate with
  // tracing off then on, then the SLO search.
  service_rig rig;
  out.obj("service_setup_s", set_up_service_repeatedly(rig).json());
  std::size_t pos = 0;
  const auto jobs = static_cast<std::size_t>(opt.num("service-jobs"));
  phase_result plain, traced;
  for (const bool on : {false, true, true, false}) {  // ABBA against drift
    g_trace.on = on;
    append(on ? traced : plain, run_phase(rig, sch, pos, p.rate, jobs / 2));
  }
  out.obj("service_untraced", phase_json(plain));
  out.obj("service_traced", phase_json(traced));
  out.arr("submit_us", traced.submit_us);
  out.arr("queue_ms", traced.queue_ms);
  out.arr("run_ms", traced.run_ms);
  out.arr("lag_ms", traced.lag_ms);
  out.obj("ladder", slo_search(rig, sch, pos, p));
  rig.svc.reset();

  g_trace.on = true;
  airfoil_layers(mp, t, static_cast<int>(opt.num("order")),
                 opt.num("seconds"), out, layer);

  out.obj("layer", layer);
  out.num("spans", static_cast<double>(g_trace.size()));
  out.num("peak_rss_mb", peak_rss_mb());
  host_probe(out);  // after the RSS reading: its arrays are not the workload's
  op2::finalize();
  g_trace.write(path);
  std::printf("%s\n", out.text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_driver airfoil|traced --key value ...\n");
    return 2;
  }
  try {
    const options opt(argc, argv);
    const std::string kind = argv[1];
    if (kind == "airfoil") {
      return run_airfoil(opt);
    }
    if (kind == "traced") {
      return run_traced(opt, read_schedule(std::cin));
    }
    std::fprintf(stderr, "unknown workload kind '%s'\n", kind.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
