#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "storage/catalog.h"
#include "storage/table.h"

namespace perfbench {

using skinner::Database;
using skinner::DataType;
using skinner::Value;

// ---- statistics -----------------------------------------------------------

std::optional<double> Percentile(std::vector<double> samples, double q) {
  if (samples.empty() || q <= 0 || q >= 1) return std::nullopt;
  const size_t n = samples.size();
  // Nearest rank: the smallest value with at least q*n samples at or below.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::max<size_t>(rank, 1);
  if (n - rank < kMinTailSamples) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double SlowestQueryMs(
    const std::vector<std::vector<std::vector<double>>>& samples) {
  double slowest = 0;
  for (const auto& query : samples) {
    double sum = 0;
    size_t instances = 0;
    for (const auto& instance : query) {
      if (instance.empty()) continue;
      sum += Median(instance);
      ++instances;
    }
    if (instances > 0) slowest = std::max(slowest, sum / instances);
  }
  return slowest;
}

// ---- the result line ------------------------------------------------------

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '.' &&
        c != '-') {
      return false;
    }
  }
  return true;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  if (!ValidMetricName(name)) {
    Fail("invalid metric name '" + name + "'");
    return;
  }
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    return;
  }
  metrics_.push_back({name, {value, unit}});
}

void Report::Fail(const std::string& why) { failures_.push_back(why); }

std::string Report::ToJson() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.10g", metrics_[i].second.first);
    os << (i == 0 ? "" : ", ") << "\"" << metrics_[i].first
       << "\": {\"value\": " << buf << ", \"unit\": \""
       << metrics_[i].second.second << "\"}";
  }
  os << "}}";
  return os.str();
}

// ---- tracing ----------------------------------------------------------------

int64_t Tracer::Begin(const std::string& name, int64_t parent,
                      int64_t request) {
  Span s;
  s.name = name;
  s.id = static_cast<int64_t>(spans_.size());
  s.parent = parent;
  s.request = request;
  s.start_ms = MsSince(origin_);
  s.end_ms = s.start_ms;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

double Tracer::End(int64_t id) {
  Span& s = spans_[static_cast<size_t>(id)];
  s.end_ms = MsSince(origin_);
  return s.end_ms - s.start_ms;
}

std::vector<std::pair<std::string, std::pair<double, double>>>
Tracer::TotalAndSelf() const {
  // Children of one span never overlap (the benchmark calls layers one at
  // a time), so the covered part is the sum of the children's durations.
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ms[static_cast<size_t>(s.parent)] += s.end_ms - s.start_ms;
    }
  }
  std::map<std::string, std::pair<double, double>> by_name;
  for (const Span& s : spans_) {
    const double d = s.end_ms - s.start_ms;
    auto& acc = by_name[s.name];
    acc.first += d;
    acc.second += d - child_ms[static_cast<size_t>(s.id)];
  }
  return {by_name.begin(), by_name.end()};
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [\n";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"id\": %lld, \"parent\": %lld, \"request\": %lld, "
                  "\"start_ms\": %.4f, \"end_ms\": %.4f, \"name\": \"",
                  static_cast<long long>(s.id), static_cast<long long>(s.parent),
                  static_cast<long long>(s.request), s.start_ms, s.end_ms);
    out << buf << s.name << "\"}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "],\n\"by_name\": {";
  bool first = true;
  for (const auto& [name, ts] : TotalAndSelf()) {
    std::snprintf(buf, sizeof(buf), "{\"total_ms\": %.4f, \"self_ms\": %.4f}",
                  ts.first, ts.second);
    out << (first ? "\n" : ",\n") << "\"" << name << "\": " << buf;
    first = false;
  }
  out << "\n}}\n";
  return static_cast<bool>(out);
}

// ---- writer script ---------------------------------------------------------

WriteScript::WriteScript(Kind kind, uint64_t seed, int64_t scale_rows)
    : kind_(kind), rng_(seed ^ 0x5772697465ull), scale_rows_(scale_rows) {}

std::string WriteScript::Next() {
  // UPDATE, INSERT, UPDATE, DELETE: half the statements are UPDATEs, so the
  // median write lies inside one statement kind rather than on the edge
  // between two, and the slowest kind (the DELETE scan) holds the p95.
  const uint64_t op = n_++ % 4;
  char buf[256];
  if (op % 2 == 0) {
    const long long key = rng_.Range(0, scale_rows_ - 1);
    if (kind_ == Kind::kJob) {
      std::snprintf(buf, sizeof(buf),
                    "UPDATE title SET production_year = %lld WHERE id = %lld",
                    static_cast<long long>(rng_.Range(1920, 2019)), key);
    } else {
      std::snprintf(buf, sizeof(buf),
                    "UPDATE part SET p_size = %lld WHERE p_partkey = %lld",
                    static_cast<long long>(rng_.Range(1, 50)), key);
    }
    return buf;
  }
  // Deletes trail inserts by a few statements, so both always find rows.
  if (op == 3 && inserted_.size() > 4) {
    const auto [a, b] = inserted_.front();
    inserted_.pop_front();
    if (kind_ == Kind::kJob) {
      std::snprintf(buf, sizeof(buf),
                    "DELETE FROM movie_keyword WHERE movie_id = %lld AND "
                    "keyword_id = %lld",
                    static_cast<long long>(a), static_cast<long long>(b));
    } else {
      std::snprintf(buf, sizeof(buf),
                    "DELETE FROM customer WHERE c_custkey = %lld",
                    static_cast<long long>(a));
    }
    return buf;
  }
  if (kind_ == Kind::kJob) {
    const int64_t movie = rng_.Range(0, scale_rows_ - 1);
    const int64_t n_keyword = std::max<int64_t>(30, scale_rows_ / 20);
    const int64_t keyword = rng_.Range(1, n_keyword - 1);
    inserted_.push_back({movie, keyword});
    std::snprintf(buf, sizeof(buf), "INSERT INTO movie_keyword VALUES (%lld, %lld)",
                  static_cast<long long>(movie), static_cast<long long>(keyword));
  } else {
    const int64_t key = 100000000 + next_key_++;
    inserted_.push_back({key, 0});
    std::snprintf(buf, sizeof(buf),
                  "INSERT INTO customer VALUES (%lld, 'Customer#bench', %lld, "
                  "'BUILDING')",
                  static_cast<long long>(key),
                  static_cast<long long>(rng_.Range(0, 24)));
  }
  return buf;
}

// ---- correctness --------------------------------------------------------------

namespace {

std::string Field(const Value& v) {
  if (v.is_null()) return "NULL";
  if (v.type() == DataType::kDouble) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v.AsDouble());
    return buf;
  }
  return v.ToString();
}

/// Strict weak order over rows: NULL first, then by value.
bool RowLess(const Row& a, const Row& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    const bool an = a[i].is_null();
    const bool bn = b[i].is_null();
    if (an != bn) return an;
    if (an) continue;
    const int c = a[i].Compare(b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

bool ValueClose(const Value& a, const Value& b, double rel_tol) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.type() == DataType::kDouble || b.type() == DataType::kDouble) {
    const double x = a.AsDouble();
    const double y = b.AsDouble();
    return std::fabs(x - y) <= rel_tol * std::max(std::fabs(x), std::fabs(y));
  }
  return a == b;
}

std::string RowText(const Row& r) {
  std::string s;
  for (size_t i = 0; i < r.size(); ++i) s += (i ? "|" : "") + Field(r[i]);
  return s;
}

}  // namespace

std::string ResultFingerprint(const skinner::QueryResult& result) {
  std::vector<std::string> rows;
  rows.reserve(result.rows.size());
  for (const Row& r : result.rows) rows.push_back(RowText(r));
  std::sort(rows.begin(), rows.end());
  std::string out;
  for (const std::string& r : rows) out += r + "\n";
  return out;
}

std::string CompareRows(std::vector<Row> got, std::vector<Row> want,
                        double rel_tol) {
  if (got.size() != want.size()) {
    return "row count " + std::to_string(got.size()) + " != " +
           std::to_string(want.size());
  }
  std::sort(got.begin(), got.end(), RowLess);
  std::sort(want.begin(), want.end(), RowLess);
  for (size_t i = 0; i < got.size(); ++i) {
    bool same = got[i].size() == want[i].size();
    for (size_t c = 0; same && c < got[i].size(); ++c) {
      same = ValueClose(got[i][c], want[i][c], rel_tol);
    }
    if (!same) {
      return "row " + std::to_string(i) + ": " + RowText(got[i]) +
             " != " + RowText(want[i]);
    }
  }
  return "";
}

std::string CompareDatabases(Database* a, Database* b) {
  std::vector<std::string> names = a->catalog()->TableNames();
  std::vector<std::string> other = b->catalog()->TableNames();
  std::sort(names.begin(), names.end());
  std::sort(other.begin(), other.end());
  if (names != other) return "the databases hold different tables";
  for (const std::string& name : names) {
    const skinner::Table* ta = a->catalog()->FindTable(name);
    const skinner::Table* tb = b->catalog()->FindTable(name);
    auto rows = [](const skinner::Table* t) {
      std::vector<Row> out;
      out.reserve(static_cast<size_t>(t->num_valid_rows()));
      for (int64_t r = 0; r < t->num_rows(); ++r) {
        if (t->IsRowValid(r)) out.push_back(t->GetRow(r));
      }
      return out;
    };
    std::string diff = CompareRows(rows(ta), rows(tb), 0.0);
    if (!diff.empty()) return "table " + name + ": " + diff;
  }
  return "";
}

// ---- process ---------------------------------------------------------------

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
