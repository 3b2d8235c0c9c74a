// The served probe of job-cold's traced run: the data set is served over
// loopback TCP (ServerCore + TcpServer in this process) to one closed-loop
// reader running `?`-parameterized templates (P/E) and one open-loop writer
// sending DML (X) plus a CHECKPOINT every kCheckpointEvery statements.
// Writers take the DDL lock exclusively, so reads queue behind them; per-table
// artifacts of tables nobody wrote stay cached. It yields the server and
// cache layer metrics; as a gated workload of its own its run-to-run spread
// on a shared 4-vCPU VM (0.25-0.48 of the median) exceeded every allowed
// bound, so it runs only in traced runs, whose metrics carry no bound.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>

#include "exec/prepared_cache.h"
#include "server/server.h"
#include "server/tcp_server.h"
#include "workload.h"

namespace perfbench {

using skinner::Database;

namespace {

/// Seconds a reply may take before the operation counts as timed out.
constexpr int kReplyTimeoutS = 30;
/// Length of the probe's window.
constexpr double kProbeSeconds = 6;
/// Parameter sets per template the reader cycles through.
constexpr int kParamSets = 8;
/// Reader lines replayed in-process through ServerConnection::HandleLine.
constexpr size_t kReplayOps = 100;

struct Template {
  const char* name;
  const char* sql;
};

// JOB families 1-4 and 6 with their unary filters turned into parameters.
// The heavy co-star and cast families are left to job-cold: here the read
// tail should show writer stalls, not the data draw of a catastrophic query.
const Template kTemplates[] = {
    {"t_keyword",
     "SELECT COUNT(*) FROM title t, movie_keyword mk, keyword k, kind_type kt "
     "WHERE t.id = mk.movie_id AND mk.keyword_id = k.id AND t.kind_id = kt.id "
     "AND k.keyword = ? AND t.production_year > ?"},
    {"t_company",
     "SELECT COUNT(*) FROM title t, movie_companies mc, company_name cn, "
     "movie_keyword mk, keyword k WHERE t.id = mc.movie_id AND "
     "mc.company_id = cn.id AND t.id = mk.movie_id AND mk.keyword_id = k.id "
     "AND cn.country_code = ? AND t.production_year > ?"},
    {"t_genre",
     "SELECT COUNT(*) FROM title t, movie_keyword mk, keyword k, movie_info mi, "
     "info_type it WHERE t.id = mk.movie_id AND mk.keyword_id = k.id AND "
     "t.id = mi.movie_id AND mi.info_type_id = it.id AND "
     "k.keyword = 'blockbuster' AND it.info = 'genre' AND mi.info = ? AND "
     "t.production_year > ?"},
    {"t_kind",
     "SELECT COUNT(*) FROM title t, movie_keyword mk, keyword k, "
     "movie_companies mc, company_name cn, kind_type kt WHERE "
     "t.id = mk.movie_id AND mk.keyword_id = k.id AND t.id = mc.movie_id AND "
     "mc.company_id = cn.id AND t.kind_id = kt.id AND "
     "k.keyword = 'blockbuster' AND cn.country_code = ? AND kt.kind = ?"},
    {"t_budget",
     "SELECT COUNT(*) FROM title t, movie_info mi, info_type it, "
     "movie_companies mc, company_name cn, kind_type kt WHERE "
     "t.id = mi.movie_id AND mi.info_type_id = it.id AND t.id = mc.movie_id "
     "AND mc.company_id = cn.id AND t.kind_id = kt.id AND it.info = 'budget' "
     "AND mi.info = ? AND cn.country_code = '[us]' AND t.production_year > ?"},
};
constexpr size_t kNumTemplates = sizeof(kTemplates) / sizeof(kTemplates[0]);

const char* const kCountries[] = {"[us]", "[gb]", "[de]", "[fr]", "[in]", "[jp]"};
const char* const kGenres[] = {"action", "drama",  "comedy",  "thriller",
                               "sci-fi", "horror", "romance", "documentary"};
const char* const kKinds[] = {"movie",      "tv series", "video movie", "episode",
                              "video game", "short",     "tv movie"};

std::string Quote(const std::string& s) { return "'" + s + "'"; }

/// Literal parameter sets per template, drawn from the generator's value
/// domains with `seed`. Set i takes its values from band i of each domain
/// (years by decade-sized band, keywords by popularity band), so every seed
/// runs the same mix of light and heavy instances and only the values
/// inside each band change.
std::vector<std::vector<std::vector<std::string>>> MakeSweep(uint64_t seed) {
  static_assert(kParamSets == 8, "one band per parameter set");
  static_assert(kJobTitles / 20 - 1 == 249, "keyword ids run 1..249");
  skinner::Rng rng(seed ^ 0x5265616465ull);
  // Keyword ids are Zipf-distributed: id 1 is the most frequent.
  const int64_t kKeywordBand[kParamSets][2] = {{0, 0},   {1, 2},   {3, 5},
                                               {6, 10},  {11, 20}, {21, 40},
                                               {41, 80}, {81, 249}};
  std::vector<std::vector<std::vector<std::string>>> sweep(kNumTemplates);
  for (int i = 0; i < kParamSets; ++i) {
    const std::string year = std::to_string(rng.Range(1920 + 12 * i, 1931 + 12 * i));
    const std::string kw =
        i == 0 ? "blockbuster"
               : "kw_" + std::to_string(rng.Range(kKeywordBand[i][0],
                                                  kKeywordBand[i][1]));
    sweep[0].push_back({Quote(kw), year});
    sweep[1].push_back({Quote(kCountries[i % 6]), year});
    sweep[2].push_back({Quote(kGenres[i]), year});
    sweep[3].push_back({Quote(kCountries[(i + 3) % 6]), Quote(kKinds[i % 7])});
    sweep[4].push_back({Quote(i % 2 == 0 ? "high" : "low"), year});
  }
  return sweep;
}

std::string ExecLine(size_t t, const std::vector<std::string>& params) {
  std::string line = std::string("E ") + kTemplates[t].name;
  for (const std::string& p : params) line += " " + p;
  return line;
}

bool IsOk(const std::string& response) {
  // The last line of every response is `OK ...` or `ERR <TOKEN> ...`.
  if (response.size() < 2) return false;
  const size_t nl = response.rfind('\n', response.size() - 2);
  return response.compare(nl == std::string::npos ? 0 : nl + 1, 2, "OK") == 0;
}

/// A blocking client of the line protocol over loopback TCP.
class LineClient {
 public:
  LineClient() = default;
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    timeval tv{};
    tv.tv_sec = kReplyTimeoutS;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }

  /// Sends one line and reads its whole response (through the final OK or
  /// ERR line). False on a transport error or a timeout.
  bool Call(const std::string& line, std::string* response) {
    const std::string out = line + "\n";
    size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t w = ::send(fd_, out.data() + sent, out.size() - sent,
                               MSG_NOSIGNAL);
      if (w <= 0) return false;
      sent += static_cast<size_t>(w);
    }
    response->clear();
    size_t line_start = 0;
    for (;;) {
      size_t nl;
      while ((nl = buf_.find('\n', line_start)) != std::string::npos) {
        const bool last = buf_.compare(line_start, 2, "OK") == 0 ||
                          buf_.compare(line_start, 3, "ERR") == 0;
        line_start = nl + 1;
        if (last) {
          response->assign(buf_, 0, line_start);
          buf_.erase(0, line_start);
          return true;
        }
      }
      char chunk[4096];
      const ssize_t r = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (r <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(r));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

/// A database served in-process: ServerCore + TcpServer on a loopback port.
struct Served {
  std::unique_ptr<skinner::ServerCore> core;
  std::unique_ptr<skinner::TcpServer> tcp;

  ~Served() {
    if (tcp != nullptr) tcp->Shutdown();
  }
};

}  // namespace

void ServedProbe(RunContext* ctx, Database* db, WriteScript* script,
                 WriteLog* log) {
  Report& report = ctx->report;
  Served served;
  served.core = std::make_unique<skinner::ServerCore>(db);
  served.tcp = std::make_unique<skinner::TcpServer>(served.core.get());
  const skinner::Status st = served.tcp->Start(0);
  if (!st.ok()) {
    report.Fail("server start: " + st.ToString());
    return;
  }
  LineClient reader;
  LineClient writer;
  if (!reader.Connect(served.tcp->port()) ||
      !writer.Connect(served.tcp->port())) {
    report.Fail("cannot connect to the server");
    return;
  }
  std::string resp;
  for (const Template& t : kTemplates) {
    if (!reader.Call(std::string("P ") + t.name + " " + t.sql, &resp) ||
        !IsOk(resp)) {
      report.Fail(std::string("P ") + t.name + ": " + resp);
      return;
    }
  }
  const auto sweep = MakeSweep(ctx->args.seed);
  const size_t cycle = kNumTemplates * kParamSets;
  auto op_template = [&](uint64_t i) { return i % kNumTemplates; };
  auto op_line = [&](uint64_t i) {
    return ExecLine(op_template(i),
                    sweep[op_template(i)][(i / kNumTemplates) % kParamSets]);
  };
  // Warm-up: one pass over every (template, parameters) pair.
  for (uint64_t i = 0; i < cycle; ++i) {
    if (!reader.Call(op_line(i), &resp) || !IsOk(resp)) {
      report.Fail("warm-up " + op_line(i) + ": " + resp);
      return;
    }
  }

  // ---- window: reader and writer run concurrently ----------------------------
  const skinner::PreparedCache::Stats cache0 = db->prepared_cache()->stats();
  std::atomic<bool> stop{false};
  std::vector<double> read_ms;
  uint64_t reads_failed = 0;
  std::thread writer_thread([&] {
    RunOpenLoopWriter(
        script, OpenLoop(Clock::now(), kWriteOpsPerSecond),
        [&](const std::string& sql) {
          std::string r;
          return writer.Call("X " + sql, &r) && IsOk(r);
        },
        [&] {
          std::string r;
          return writer.Call("CHECKPOINT", &r) && IsOk(r);
        },
        [&] { return stop.load(); }, UINT64_MAX, log);
  });
  std::thread reader_thread([&] {
    std::string r;
    for (uint64_t i = cycle; !stop.load(); ++i) {
      ScopedSpan span(ctx->tracer_or_null(), "server.rtt", -1,
                      static_cast<int64_t>(i));
      const Clock::time_point t0 = Clock::now();
      if (reader.Call(op_line(i), &r) && IsOk(r)) {
        read_ms.push_back(MsSince(t0));
      } else {
        ++reads_failed;
        std::fprintf(stderr, "perfbench: read failed: %s", r.c_str());
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::duration<double>(kProbeSeconds));
  stop.store(true);
  reader_thread.join();
  writer_thread.join();
  const skinner::PreparedCache::Stats cache1 = db->prepared_cache()->stats();
  report.attempted += read_ms.size() + reads_failed;
  report.failed += reads_failed;

  // The same reads through an in-process connection: the server's own
  // share of the round trip, without the transport.
  std::vector<double> handle_ms;
  {
    auto conn = served.core->Connect();
    if (!conn.ok()) {
      report.Fail("in-process connection: " + conn.status().ToString());
      return;
    }
    skinner::ServerConnection* c = conn.value().get();
    for (const Template& t : kTemplates) {
      c->HandleLine(std::string("P ") + t.name + " " + t.sql);
    }
    for (uint64_t i = cycle; i < cycle + kReplayOps; ++i) {
      const Clock::time_point t0 = Clock::now();
      skinner::ServerResponse r = c->HandleLine(op_line(i));
      handle_ms.push_back(MsSince(t0));
      if (!IsOk(r.text)) report.Fail("replayed read: " + r.text);
    }
  }
  const double hits = static_cast<double>(cache1.table_hits - cache0.table_hits);
  const double misses =
      static_cast<double>(cache1.table_misses - cache0.table_misses);
  report.Add("exec.table_hit_rate",
             hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  report.Add("exec.tables_reprepared_per_read",
             read_ms.empty() ? 0.0
                             : misses / static_cast<double>(read_ms.size()),
             "count");
  report.Add("server.rtt_ms", Median(read_ms), "ms");
  report.Add("server.handle_ms", Median(handle_ms), "ms");
}

}  // namespace perfbench
