#ifndef SKINNER_EXEC_PREPARED_CACHE_H_
#define SKINNER_EXEC_PREPARED_CACHE_H_

#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/prepared_query.h"

namespace skinner {

/// Identity + data-version stamp of one FROM-list table at bind time. Two
/// executions may share prepared state only if every referenced table has
/// the same id (same CREATE, not a same-name re-creation) and the same
/// data version (no INSERT since the artifact was built).
struct TableStamp {
  uint64_t table_id = 0;
  uint64_t data_version = 0;

  bool operator==(const TableStamp& o) const {
    return table_id == o.table_id && data_version == o.data_version;
  }
  bool operator!=(const TableStamp& o) const { return !(*this == o); }
};

/// Canonical signature of a bound SELECT: an unambiguous serialization of
/// the FROM list (table names), every bound expression (by table/column
/// index, operator codes and literal values — string literals are
/// length-prefixed, doubles serialized by bit pattern), DISTINCT, GROUP
/// BY, ORDER BY and LIMIT. Template-identical queries — same normalized
/// structure regardless of the original SQL text — map to the same
/// signature and share its tables' pre-processing artifacts.
///
/// `?` parameters serialize as typed slots (ordinal + inferred type), NOT
/// as values: the signature of a parameterized template is therefore
/// parameter-abstracted, and every execution of the template — whatever
/// constants it binds — shares one signature. Warm-start join orders are
/// keyed by it, which is what makes learned orders transfer across
/// parameter values (paper 4.2/4.5: order quality is a property of the
/// join template, not of the constants).
std::string ComputeQuerySignature(const BoundQuery& query);

/// Serializes one concrete parameter value unambiguously (typed, length-
/// prefixed strings, doubles by bit pattern) for per-table artifact keys.
void AppendValueSignature(const Value& v, std::string* out);

/// The concrete key of ONE table's pre-processing artifact inside a
/// template: the (parameter-abstracted) template signature, the table's
/// FROM position, the index variant, and the concrete values of exactly
/// the parameters that reach this table's unary predicates. Tables whose
/// filters mention no parameter get the same key for every parameter set
/// — one shared artifact — while param-filtered tables get one artifact
/// per distinct bound value. A literal SELECT is a zero-parameter
/// template: its signature with empty value strings. The index variant is
/// part of the key because an artifact built without hash indexes must
/// not serve a query that wants them (engines would silently fall back to
/// full scans), and vice versa.
std::string TableArtifactKey(const std::string& template_signature,
                             int table_idx, bool build_hash_indexes,
                             const std::string& param_values_sig);

/// Cross-query cache of pre-processing artifacts (paper Figure 2 / 4.5:
/// per-query filtering and hash-index builds), at table granularity: each
/// entry is one TableArtifact keyed by TableArtifactKey plus the table's
/// stamp. Every cached prepare — literal Query(), QueryBatch items and
/// PreparedStatement executions — goes through these entries, so DML on
/// one table re-prepares only that table's artifacts.
///
/// A key match with a stale stamp (DML since the build) evicts the entry
/// and counts as an invalidation; entries for dropped tables become
/// unreachable the same way (the stamp of a re-created table carries a new
/// table id) and age out of the LRU ring.
///
/// Admission/eviction is size-aware: every entry is charged its artifact
/// bytes (TableArtifact::bytes plus a fixed per-entry overhead), and the
/// least recently used entries are evicted until the total fits
/// `max_bytes`. An entry larger than the whole budget is not admitted at
/// all (counted in stats().admission_rejected); the caller still keeps
/// its artifact.
///
/// In-flight build coordination: AcquireTable/TryAcquireTable hand
/// builder=true to exactly one caller per key; every other concurrent
/// caller waits until the builder publishes (getting the freshly built
/// artifact even if an eviction races in between) or abandons (waking
/// waiters to build for themselves). This removes the duplicated
/// pre-processing a Lookup/Insert race allows.
///
/// The cache additionally remembers, per signature, the last join order
/// Skinner-C converged to, surviving data invalidation: the order quality
/// depends on the data distribution, which DML rarely changes drastically,
/// so a re-prepared template can still warm-start its UCT tree from it
/// (learning itself stays per-execution, consistent with the paper).
///
/// All methods are thread-safe; artifacts returned stay valid after
/// eviction (shared ownership).
class PreparedCache {
 public:
  static constexpr size_t kDefaultMaxBytes = size_t{64} << 20;  // 64 MiB
  /// Charged per entry on top of the artifact bytes (map/list
  /// bookkeeping); also what makes zero-byte entries evictable.
  static constexpr size_t kEntryOverheadBytes = 256;

  explicit PreparedCache(size_t max_bytes = kDefaultMaxBytes);
  PreparedCache(const PreparedCache&) = delete;
  PreparedCache& operator=(const PreparedCache&) = delete;

  // ---- per-table artifacts -------------------------------------------

  using TableArtifactPtr = std::shared_ptr<const TableArtifact>;

  TableArtifactPtr LookupTable(const std::string& key, const TableStamp& stamp);
  void InsertTable(const std::string& key, const TableStamp& stamp,
                   TableArtifactPtr artifact);

  struct TableClaim {
    TableArtifactPtr artifact;
    bool builder = false;  // true: the caller must PublishTable/AbandonTable
  };
  /// Lookup with build coordination: a hit returns the artifact; the
  /// first caller to miss becomes the builder (builder=true) and MUST
  /// later call PublishTable (success) or AbandonTable (failure) for this
  /// key; concurrent callers block until then and receive the published
  /// artifact. A caller holding builder claims on several keys at once
  /// MUST follow the claim-all protocol (below); a caller that only ever
  /// holds one claim at a time may simply publish (or abandon) it before
  /// acquiring the next.
  TableClaim AcquireTable(const std::string& key, const TableStamp& stamp);
  void PublishTable(const std::string& key, const TableStamp& stamp,
                    TableArtifactPtr artifact);
  void AbandonTable(const std::string& key);

  /// Claim-all protocol for building SEVERAL tables' artifacts at once
  /// (QueryPipeline::Prepare's cached pre-processing of an m-table join):
  ///
  ///   1. TryAcquireTable every key up front — never blocks; each call
  ///      yields a ready artifact, a builder claim, or another caller's
  ///      in-flight token.
  ///   2. Build and PublishTable (or AbandonTable) EVERY owned claim.
  ///   3. Only then WaitTable on the tokens of step 1.
  ///
  /// Deadlock-freedom: a claim holder never blocks while holding an
  /// unpublished claim, so the wait-for graph between builders has no
  /// cycle by construction. (Blocking sorted acquisition would NOT work
  /// here: two builders each holding one claim of the other's set would
  /// wait forever, because neither publishes anything until it holds all
  /// its claims.)
  struct TableTryClaim {
    TableArtifactPtr artifact;  // set on an immediate hit
    bool builder = false;       // true: the caller must Publish/Abandon
    /// Another caller's in-flight build token (artifact and builder both
    /// unset); redeem with WaitTable after publishing every owned claim.
    std::shared_ptr<void> pending;
  };
  TableTryClaim TryAcquireTable(const std::string& key,
                                const TableStamp& stamp);
  /// Blocks on `pending` (from TryAcquireTable) until its builder
  /// publishes or abandons. Returns the published artifact, or — after an
  /// abandon, or a publish under different stamps — falls back to the
  /// blocking AcquireTable loop, so the result may be builder=true and the
  /// caller must then build-and-publish (or abandon) itself.
  TableClaim WaitTable(const std::string& key, const TableStamp& stamp,
                       const std::shared_ptr<void>& pending);

  // ---- warm-start join orders ----------------------------------------

  /// Records the final join order an execution of `signature` converged to
  /// (Skinner-C's UCT exploitation path). Empty orders are ignored.
  void RecordFinalOrder(const std::string& signature, std::vector<int> order);

  /// The last recorded final order for `signature` (empty if none).
  std::vector<int> WarmOrder(const std::string& signature) const;

  struct Stats {
    uint64_t table_hits = 0;
    uint64_t table_misses = 0;
    uint64_t table_invalidations = 0;  // key hits discarded on stale stamps
    /// Lookups served by blocking on another caller's in-flight build
    /// instead of re-preparing.
    uint64_t inflight_waits = 0;
    /// Entries larger than the whole byte budget, never admitted.
    uint64_t admission_rejected = 0;
    /// Entries evicted to fit the byte budget (not replacements or
    /// stamp invalidations).
    uint64_t size_evictions = 0;
    size_t table_entries = 0;
    size_t bytes_used = 0;  // charged bytes across all entries
    size_t max_bytes = 0;   // the configured budget
  };
  Stats stats() const;

  /// Drops all entries and warm orders (stats are kept; in-flight builder
  /// claims stay valid and publish into the emptied cache).
  void Clear();

 private:
  using LruList = std::list<std::string>;  // table artifact keys

  struct TableEntry {
    TableStamp stamp;
    TableArtifactPtr artifact;
    size_t bytes = 0;
    LruList::iterator lru_it;
  };
  /// One in-flight build: waiters sleep on `cv` until the builder flips
  /// `done` (PublishTable carries the payload so an eviction race cannot
  /// strand the waiters; AbandonTable leaves it empty).
  struct Inflight {
    bool done = false;
    TableArtifactPtr artifact;
    TableStamp stamp;
    std::condition_variable cv;
  };

  void EvictTableLocked(const std::string& key);
  /// Evicts LRU entries until `bytes` more fit the budget; returns false
  /// (admission rejected) if they never can.
  bool ReserveLocked(size_t bytes);
  void InsertTableLocked(const std::string& key, const TableStamp& stamp,
                         TableArtifactPtr artifact);

  const size_t max_bytes_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, TableEntry> table_entries_;
  LruList lru_;  // front = most recently used
  size_t bytes_used_ = 0;
  std::unordered_map<std::string, std::shared_ptr<Inflight>> table_inflight_;
  std::unordered_map<std::string, std::vector<int>> orders_;
  std::list<std::string> order_fifo_;
  uint64_t table_hits_ = 0;
  uint64_t table_misses_ = 0;
  uint64_t table_invalidations_ = 0;
  uint64_t inflight_waits_ = 0;
  uint64_t admission_rejected_ = 0;
  uint64_t size_evictions_ = 0;
};

}  // namespace skinner

#endif  // SKINNER_EXEC_PREPARED_CACHE_H_
