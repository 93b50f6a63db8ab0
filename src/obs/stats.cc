#include "src/obs/stats.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "src/obs/json_lite.h"

namespace vqldb {
namespace obs {

namespace {
std::atomic<bool> g_stats_enabled{true};
}  // namespace

bool StatsEnabled() { return g_stats_enabled.load(std::memory_order_relaxed); }
void SetStatsEnabled(bool enabled) {
  g_stats_enabled.store(enabled, std::memory_order_relaxed);
}

uint64_t MixHash(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::string AdornmentString(uint64_t bound_mask, size_t arity) {
  std::string s;
  s.reserve(arity);
  for (size_t i = 0; i < arity; ++i) {
    const bool bound = i < 64 && (bound_mask >> i) & 1u;
    s.push_back(bound ? 'b' : 'f');
  }
  return s;
}

// ---------------------------------------------------------------------------
// HyperLogLog
// ---------------------------------------------------------------------------

void Hll::AddHash(uint64_t hash) {
  const uint32_t index = static_cast<uint32_t>(hash >> (64 - kPrecision));
  const uint64_t w = hash << kPrecision;
  // Rank = position of the leftmost 1-bit in the remaining 64-p bits.
  const uint8_t rank =
      w == 0 ? static_cast<uint8_t>(64 - kPrecision + 1)
             : static_cast<uint8_t>(__builtin_clzll(w) + 1);
  uint8_t& reg = registers_[index];
  if (rank > reg) {
    if (reg == 0) ++nonzero_registers_;
    reg = rank;
  }
}

double Hll::Estimate() const {
  if (nonzero_registers_ == 0) return 0;
  const double m = static_cast<double>(kRegisters);
  const double alpha = 0.7213 / (1.0 + 1.079 / m);
  double sum = 0;
  for (uint8_t reg : registers_) sum += std::ldexp(1.0, -reg);
  double estimate = alpha * m * m / sum;
  if (estimate <= 2.5 * m) {
    const uint32_t zero_registers = kRegisters - nonzero_registers_;
    if (zero_registers != 0) {
      // Linear counting: far more accurate in the small range (a few
      // thousand distinct values against 4096 registers).
      estimate = m * std::log(m / static_cast<double>(zero_registers));
    }
  }
  return estimate;
}

void Hll::Reset() {
  registers_.fill(0);
  nonzero_registers_ = 0;
}

// ---------------------------------------------------------------------------
// Latency windows
// ---------------------------------------------------------------------------

void StatsCollector::LatencyWindow::Add(uint64_t us) {
  if (samples.size() < kLatencyWindow) {
    samples.push_back(us);
  } else {
    samples[next] = us;
    next = (next + 1) % kLatencyWindow;
  }
  ++count;
}

void StatsCollector::LatencyWindow::Quantiles(uint64_t* p50,
                                              uint64_t* p99) const {
  *p50 = 0;
  *p99 = 0;
  if (samples.empty()) return;
  std::vector<uint64_t> sorted = samples;
  const size_t n = sorted.size();
  // Exact quantiles: the element at floor((n-1) * q) of the sorted window.
  const size_t i50 = (n - 1) / 2;
  const size_t i99 = ((n - 1) * 99) / 100;
  std::nth_element(sorted.begin(), sorted.begin() + i50, sorted.end());
  *p50 = sorted[i50];
  std::nth_element(sorted.begin(), sorted.begin() + i99, sorted.end());
  *p99 = sorted[i99];
}

// ---------------------------------------------------------------------------
// StatsCollector
// ---------------------------------------------------------------------------

StatsCollector& StatsCollector::Global() {
  static StatsCollector* collector = new StatsCollector();
  return *collector;
}

namespace {
// Internal predicates never feed statistics: magic demand predicates
// ("m#pred#bf") are evaluation scaffolding and sys_* relations are the
// statistics themselves.
bool IsInternalPredicate(const std::string& predicate) {
  return predicate.compare(0, 4, "sys_") == 0 ||
         predicate.find('#') != std::string::npos;
}
}  // namespace

void StatsCollector::RecordRow(const std::string& predicate,
                               const uint32_t* ids, uint32_t arity) {
  if (!StatsEnabled() || arity == 0) return;
  if (IsInternalPredicate(predicate)) return;
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Hll>* sketches;
  if (last_sketches_ != nullptr && *last_predicate_ == predicate) {
    sketches = last_sketches_;
  } else {
    auto it = columns_.try_emplace(predicate).first;
    last_predicate_ = &it->first;
    last_sketches_ = &it->second;
    sketches = last_sketches_;
  }
  if (sketches->size() < arity) sketches->resize(arity);
  for (uint32_t c = 0; c < arity; ++c) {
    (*sketches)[c].AddHash(MixHash(ids[c]));
  }
}

void StatsCollector::RecordProbes(const std::string& predicate,
                                  const std::string& adornment,
                                  uint64_t probes, uint64_t candidates,
                                  uint64_t relation_rows) {
  if (!StatsEnabled() || probes == 0) return;
  if (IsInternalPredicate(predicate)) return;
  std::lock_guard<std::mutex> lock(mu_);
  SelectivityStats& s = selectivity_[{predicate, adornment}];
  s.probes += probes;
  s.candidates += candidates;
  // Batch selectivity: mean candidate fraction of the probed relation.
  const double per_probe =
      static_cast<double>(candidates) / static_cast<double>(probes);
  const double batch =
      relation_rows == 0 ? 0
                         : per_probe / static_cast<double>(relation_rows);
  if (!s.seeded) {
    s.ewma = batch;
    s.seeded = true;
  } else {
    s.ewma += kEwmaAlpha * (batch - s.ewma);
  }
}

void StatsCollector::RecordQuery(QueryRecord record) {
  if (!StatsEnabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++total_queries_;
  record.seq = next_seq_++;
  FingerprintStats& f = queries_[record.fingerprint];
  f.latency.Add(record.total_us);
  if (record.status == "ok") f.rows += record.rows;
  ++f.status_counts[record.status];
  phases_[0].Add(record.parse_us);
  phases_[1].Add(record.rewrite_us);
  phases_[2].Add(record.eval_us);
  phases_[3].Add(record.decode_us);
  phases_[4].Add(record.total_us);
  const bool slow = record.total_us >= slow_threshold_us_;
  if (slow || record.status != "ok") {
    slow_.push_back(std::move(record));
    while (slow_.size() > slow_capacity_) slow_.pop_front();
  }
}

void StatsCollector::RecordPlanChoice(const std::string& fingerprint,
                                      const std::string& strategy) {
  if (!StatsEnabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++plan_choices_[{fingerprint, strategy}];
}

void StatsCollector::set_slow_threshold_us(uint64_t us) {
  std::lock_guard<std::mutex> lock(mu_);
  slow_threshold_us_ = us;
}

uint64_t StatsCollector::slow_threshold_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slow_threshold_us_;
}

void StatsCollector::set_slow_capacity(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  slow_capacity_ = n == 0 ? 1 : n;
  while (slow_.size() > slow_capacity_) slow_.pop_front();
}

StatsSnapshot StatsCollector::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  StatsSnapshot snap;
  snap.slow_threshold_us = slow_threshold_us_;
  snap.total_queries = total_queries_;
  for (const auto& [predicate, sketches] : columns_) {
    for (size_t c = 0; c < sketches.size(); ++c) {
      if (sketches[c].Empty()) continue;
      snap.columns.push_back({predicate, static_cast<uint32_t>(c),
                              sketches[c].Estimate()});
    }
  }
  for (const auto& [key, s] : selectivity_) {
    snap.selectivity.push_back(
        {key.first, key.second, s.probes, s.candidates, s.ewma});
  }
  for (const auto& [fingerprint, f] : queries_) {
    QueryStatView view;
    view.fingerprint = fingerprint;
    view.rows = f.rows;
    f.latency.Quantiles(&view.p50_us, &view.p99_us);
    for (const auto& [status, n] : f.status_counts) {
      view.count += n;
      view.statuses.emplace_back(status, n);
    }
    snap.queries.push_back(std::move(view));
  }
  static const char* kPhaseNames[5] = {"parse", "rewrite", "eval", "decode",
                                       "total"};
  for (size_t i = 0; i < phases_.size(); ++i) {
    PhaseStatView view;
    view.phase = kPhaseNames[i];
    view.count = phases_[i].count;
    phases_[i].Quantiles(&view.p50_us, &view.p99_us);
    snap.phases.push_back(std::move(view));
  }
  for (const auto& [key, count] : plan_choices_) {
    snap.plan_choices.push_back({key.first, key.second, count});
  }
  snap.slow.assign(slow_.begin(), slow_.end());
  return snap;
}

void StatsCollector::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  columns_.clear();
  last_predicate_ = nullptr;
  last_sketches_ = nullptr;
  selectivity_.clear();
  queries_.clear();
  plan_choices_.clear();
  for (LatencyWindow& w : phases_) w = LatencyWindow{};
  slow_.clear();
  total_queries_ = 0;
  next_seq_ = 1;
}

void StatsCollector::ResetSlowLog() {
  std::lock_guard<std::mutex> lock(mu_);
  slow_.clear();
}

// ---------------------------------------------------------------------------
// Slow-log rendering / validation
// ---------------------------------------------------------------------------

namespace {
void AppendRecordJson(const QueryRecord& r, std::string* out) {
  char buf[256];
  out->append("{\"seq\": ");
  std::snprintf(buf, sizeof(buf), "%llu", (unsigned long long)r.seq);
  out->append(buf);
  out->append(", \"fingerprint\": \"");
  out->append(JsonEscape(r.fingerprint));
  out->append("\", \"status\": \"");
  out->append(JsonEscape(r.status));
  out->append("\", \"access_path\": \"");
  out->append(JsonEscape(r.access_path));
  out->append("\", \"reason\": \"");
  out->append(JsonEscape(r.reason));
  std::snprintf(buf, sizeof(buf),
                "\", \"rows\": %llu, \"parse_us\": %llu, \"rewrite_us\": "
                "%llu, \"eval_us\": %llu, \"decode_us\": %llu, \"total_us\": "
                "%llu, \"bytes_peak\": %llu, \"tuples\": %llu, "
                "\"solver_steps\": %llu}",
                (unsigned long long)r.rows, (unsigned long long)r.parse_us,
                (unsigned long long)r.rewrite_us, (unsigned long long)r.eval_us,
                (unsigned long long)r.decode_us, (unsigned long long)r.total_us,
                (unsigned long long)r.bytes_peak, (unsigned long long)r.tuples,
                (unsigned long long)r.solver_steps);
  out->append(buf);
}
}  // namespace

std::string StatsCollector::RenderSlowLogJson() const {
  const StatsSnapshot snap = Snapshot();
  std::string out;
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "{\"slow_threshold_us\": %llu, \"total_queries\": %llu, ",
                (unsigned long long)snap.slow_threshold_us,
                (unsigned long long)snap.total_queries);
  out.append(buf);
  out.append("\"entries\": [");
  for (size_t i = 0; i < snap.slow.size(); ++i) {
    if (i != 0) out.append(", ");
    AppendRecordJson(snap.slow[i], &out);
  }
  out.append("], \"queries\": [");
  for (size_t i = 0; i < snap.queries.size(); ++i) {
    const QueryStatView& q = snap.queries[i];
    if (i != 0) out.append(", ");
    out.append("{\"fingerprint\": \"");
    out.append(JsonEscape(q.fingerprint));
    std::snprintf(buf, sizeof(buf),
                  "\", \"count\": %llu, \"rows\": %llu, \"p50_us\": %llu, "
                  "\"p99_us\": %llu, \"statuses\": {",
                  (unsigned long long)q.count, (unsigned long long)q.rows,
                  (unsigned long long)q.p50_us, (unsigned long long)q.p99_us);
    out.append(buf);
    for (size_t s = 0; s < q.statuses.size(); ++s) {
      if (s != 0) out.append(", ");
      out.append("\"");
      out.append(JsonEscape(q.statuses[s].first));
      std::snprintf(buf, sizeof(buf), "\": %llu",
                    (unsigned long long)q.statuses[s].second);
      out.append(buf);
    }
    out.append("}}");
  }
  out.append("]}\n");
  return out;
}

std::string StatsCollector::RenderSlowLogText(size_t max_entries) const {
  const StatsSnapshot snap = Snapshot();
  std::ostringstream out;
  out << "slow-query log (threshold " << snap.slow_threshold_us
      << " us, retaining " << snap.slow.size() << " entries)\n";
  if (snap.slow.empty()) {
    out << "  (empty)\n";
    return out.str();
  }
  size_t shown = 0;
  for (auto it = snap.slow.rbegin();
       it != snap.slow.rend() && shown < max_entries; ++it, ++shown) {
    const QueryRecord& r = *it;
    out << "  #" << r.seq << " " << r.fingerprint << " [" << r.status << ", "
        << r.access_path << "] total " << r.total_us << " us (parse "
        << r.parse_us << ", rewrite " << r.rewrite_us << ", eval " << r.eval_us
        << ", decode " << r.decode_us << "), rows " << r.rows;
    if (r.bytes_peak != 0 || r.tuples != 0 || r.solver_steps != 0) {
      out << ", budget " << r.bytes_peak << " B peak / " << r.tuples
          << " tuples / " << r.solver_steps << " solver steps";
    }
    if (!r.reason.empty()) out << ", reason: " << r.reason;
    out << "\n";
  }
  return out.str();
}

namespace {
bool NonNegativeNumber(const JsonValue* v) {
  return v != nullptr && v->is_number() && v->number_value >= 0;
}
bool RequireString(const JsonValue& obj, const char* key, std::string* error) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || !v->is_string()) {
    *error = std::string("missing or non-string field \"") + key + "\"";
    return false;
  }
  return true;
}
bool RequireNonNegative(const JsonValue& obj, const char* key,
                        std::string* error) {
  if (!NonNegativeNumber(obj.Find(key))) {
    *error = std::string("missing or negative numeric field \"") + key + "\"";
    return false;
  }
  return true;
}
}  // namespace

bool ValidateSlowLogJson(const std::string& json, std::string* error) {
  std::string scratch;
  if (error == nullptr) error = &scratch;
  JsonValue root;
  if (!ParseJson(json, &root, error)) return false;
  if (!root.is_object()) {
    *error = "slow log root is not an object";
    return false;
  }
  if (!RequireNonNegative(root, "slow_threshold_us", error)) return false;
  if (!RequireNonNegative(root, "total_queries", error)) return false;
  const JsonValue* entries = root.Find("entries");
  if (entries == nullptr || !entries->is_array()) {
    *error = "missing \"entries\" array";
    return false;
  }
  for (const JsonValue& e : entries->array) {
    if (!e.is_object()) {
      *error = "slow-log entry is not an object";
      return false;
    }
    for (const char* key : {"fingerprint", "status", "access_path", "reason"}) {
      if (!RequireString(e, key, error)) return false;
    }
    for (const char* key :
         {"seq", "rows", "parse_us", "rewrite_us", "eval_us", "decode_us",
          "total_us", "bytes_peak", "tuples", "solver_steps"}) {
      if (!RequireNonNegative(e, key, error)) return false;
    }
    // Phase timings can never exceed the recorded total by construction;
    // allow equality (sub-microsecond phases round to zero).
    const double total = e.Find("total_us")->number_value;
    const double phase_sum =
        e.Find("parse_us")->number_value + e.Find("rewrite_us")->number_value +
        e.Find("eval_us")->number_value + e.Find("decode_us")->number_value;
    if (phase_sum > total + 1000.0) {
      *error = "entry phase timings exceed total_us";
      return false;
    }
  }
  const JsonValue* queries = root.Find("queries");
  if (queries == nullptr || !queries->is_array()) {
    *error = "missing \"queries\" array";
    return false;
  }
  for (const JsonValue& q : queries->array) {
    if (!q.is_object()) {
      *error = "query aggregate is not an object";
      return false;
    }
    if (!RequireString(q, "fingerprint", error)) return false;
    for (const char* key : {"count", "rows", "p50_us", "p99_us"}) {
      if (!RequireNonNegative(q, key, error)) return false;
    }
    if (q.Find("p50_us")->number_value > q.Find("p99_us")->number_value) {
      *error = "quantile inversion: p50_us > p99_us";
      return false;
    }
    const JsonValue* statuses = q.Find("statuses");
    if (statuses == nullptr || !statuses->is_object()) {
      *error = "missing \"statuses\" object";
      return false;
    }
    double status_sum = 0;
    for (const auto& [name, n] : statuses->object) {
      if (!n.is_number() || n.number_value < 0) {
        *error = "status count for \"" + name + "\" is not a count";
        return false;
      }
      status_sum += n.number_value;
    }
    if (status_sum != q.Find("count")->number_value) {
      *error = "status counts do not sum to \"count\"";
      return false;
    }
  }
  return true;
}

}  // namespace obs
}  // namespace vqldb
