// Typed metrics registry: the one way measurement data leaves the
// simulator (DESIGN.md Sec. 11).
//
// Components register named metrics once (a registry allocates the
// joined name; an unbound value_block only takes a slot), then bump them
// through small handle objects on the hot path (a handle is one pointer;
// an increment is one dereference, no lookup, no allocation).
// Names are hierarchical with '/' separators and '.'-suffixed instance
// coordinates, e.g. "se.2.1/port0/queue_depth" or "client.3/issued".
//
// Determinism contract (extends PR 1): a snapshot enumerates metrics in
// sorted name order, and snapshot::write_csv formats values with the same
// std::to_string conventions as stats::csv_writer users, so exports are
// byte-identical across runs and --threads settings as long as the
// underlying simulation is. Metrics registered with k_metric_profile
// (wall-clock measurements) are inherently nondeterministic and are
// excluded from snapshots unless explicitly requested.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "stats/summary.hpp"

namespace bluescale::obs {

enum class metric_kind : std::uint8_t {
    counter, ///< monotonically increasing unsigned count
    gauge,   ///< signed level (set/add)
    real,    ///< floating-point level (derived values, wall-clock rates)
    sample,  ///< stats::sample_set of per-event observations
};

[[nodiscard]] const char* metric_kind_name(metric_kind k);

/// Metric registered from a wall-clock/profiling source: excluded from
/// deterministic snapshots (take_snapshot(false)) by default.
inline constexpr std::uint32_t k_metric_profile = 1u << 0;

namespace detail {
/// Storage cell behind a handle: 16 B whatever the kind. Its address is
/// stable for the lifetime of the store that made it (a registry's deque,
/// a value_block's block). It carries no name: a registry's index keys it
/// by one. Counters, gauges and reals share one value word; a sample
/// metric's word points at its stats::sample_set, which the store keeps
/// beside its slots, so only sample metrics pay for one.
struct slot {
    metric_kind kind = metric_kind::counter;
    std::uint32_t flags = 0;
    union {
        std::uint64_t count = 0;    ///< counter
        std::int64_t level;         ///< gauge
        double value;               ///< real
        stats::sample_set* samples; ///< sample (never null once made)
    };
};
} // namespace detail

/// Handles are trivially copyable and nullable: a default-constructed
/// handle ignores writes and reads as zero/empty, so components can keep
/// recording unconditionally whether or not anything bound them.
class counter {
public:
    counter() = default;
    void inc(std::uint64_t n = 1) {
        if (s_ != nullptr) s_->count += n;
    }
    [[nodiscard]] std::uint64_t value() const {
        return s_ == nullptr ? 0 : s_->count;
    }
    [[nodiscard]] bool bound() const { return s_ != nullptr; }

private:
    friend class metric_store;
    explicit counter(detail::slot* s) : s_(s) {}
    detail::slot* s_ = nullptr;
};

class gauge {
public:
    gauge() = default;
    void set(std::int64_t v) {
        if (s_ != nullptr) s_->level = v;
    }
    void add(std::int64_t d) {
        if (s_ != nullptr) s_->level += d;
    }
    [[nodiscard]] std::int64_t value() const {
        return s_ == nullptr ? 0 : s_->level;
    }
    [[nodiscard]] bool bound() const { return s_ != nullptr; }

private:
    friend class metric_store;
    explicit gauge(detail::slot* s) : s_(s) {}
    detail::slot* s_ = nullptr;
};

class real_gauge {
public:
    real_gauge() = default;
    void set(double v) {
        if (s_ != nullptr) s_->value = v;
    }
    void add(double d) {
        if (s_ != nullptr) s_->value += d;
    }
    [[nodiscard]] double value() const {
        return s_ == nullptr ? 0.0 : s_->value;
    }
    [[nodiscard]] bool bound() const { return s_ != nullptr; }

private:
    friend class metric_store;
    explicit real_gauge(detail::slot* s) : s_(s) {}
    detail::slot* s_ = nullptr;
};

class sample {
public:
    sample() = default;
    void add(double x) {
        if (s_ != nullptr) s_->add(x);
    }
    /// The accumulated sample set (a shared empty set when unbound).
    [[nodiscard]] const stats::sample_set& values() const;
    [[nodiscard]] std::uint64_t count() const {
        return s_ == nullptr ? 0 : s_->count();
    }
    [[nodiscard]] bool bound() const { return s_ != nullptr; }

private:
    friend class metric_store;
    explicit sample(stats::sample_set* s) : s_(s) {}
    stats::sample_set* s_ = nullptr;
};

/// One metric's value, decoupled from registry storage (snapshots own
/// their data so they can outlive, merge across, and diff against trials).
/// Only the field of `kind` is copied from the store; the others read
/// zero (a gauge's count is 0) or empty.
struct metric_value {
    metric_kind kind = metric_kind::counter;
    std::uint32_t flags = 0;
    std::uint64_t count = 0;
    std::int64_t level = 0;
    double value = 0.0;
    stats::sample_set samples;
};

/// Point-in-time copy of a registry, sorted by metric name.
class snapshot {
public:
    using entry = std::pair<std::string, metric_value>;

    snapshot() = default;

    [[nodiscard]] const std::vector<entry>& entries() const {
        return entries_;
    }
    [[nodiscard]] bool empty() const { return entries_.empty(); }
    [[nodiscard]] const metric_value* find(std::string_view name) const;
    /// The named metric, or an empty one (zero count, no samples) when
    /// absent -- the same missing-is-zero rule metric_cells applies.
    [[nodiscard]] const metric_value& get(std::string_view name) const;

    /// Accumulates `other` into this snapshot: counters/gauges/reals sum,
    /// sample sets append in call order (so merging per-trial snapshots in
    /// trial order reproduces the serial sample sequence bit-for-bit).
    /// Metrics absent on one side are adopted as-is.
    void merge(const snapshot& other);

    /// Change since `base` (an earlier snapshot of the same registry):
    /// counters/gauges/reals subtract; a sample metric keeps the samples
    /// appended after base's count. Metrics absent from base pass through.
    [[nodiscard]] snapshot diff(const snapshot& base) const;

    /// The k_metric_profile-flagged (wall-clock) subset of this snapshot:
    /// what take_snapshot(true) added on top of the deterministic export.
    [[nodiscard]] snapshot profile_only() const;

    /// Deterministic export: one row per metric, sorted by name, values
    /// formatted via std::to_string. `name_prefix` is prepended to every
    /// metric name (multi-section exports); `header` controls whether the
    /// column header row is written.
    void write_csv(std::ostream& os, std::string_view name_prefix = {},
                   bool header = true) const;

private:
    friend class registry;
    std::vector<entry> entries_;
};

/// Scalar cell rendering shared by the exporters: counters/gauges via
/// std::to_string(integer), reals via std::to_string(double) (fixed,
/// six decimals -- matching the repo's historical CSV formatting), sample
/// metrics as their mean.
[[nodiscard]] std::string format_metric_cell(const metric_value& v);

/// Row-export bridge for the bench drivers: the named metrics of `snap`
/// rendered as CSV cells, in the order given. A name missing from the
/// snapshot renders as "0". A sample metric defaults to its mean; an
/// optional ":mean" / ":sd" / ":min" / ":max" / ":p50" / ":p99" /
/// ":count" suffix on the name selects another statistic (formatted with
/// the same std::to_string conventions).
[[nodiscard]] std::vector<std::string>
metric_cells(const snapshot& snap, const std::vector<std::string>& names);

/// A metric name as the pieces it is joined from, e.g. {"se.2.1",
/// "/port3", "/backlogged_cycles"}. Only a named registry joins them; a
/// value_block never reads them, so an owner registering into one formats
/// and allocates nothing. The pieces are views: they must outlive the
/// make_* call that takes the name.
class metric_name {
public:
    metric_name(const char* name) : parts_{std::string_view(name)} {}
    metric_name(const std::string& name) : parts_{std::string_view(name)} {}
    metric_name(std::string_view a, std::string_view b = {},
                std::string_view c = {}, std::string_view d = {})
        : parts_{a, b, c, d} {}

    /// The pieces concatenated, in order.
    [[nodiscard]] std::string joined() const;

private:
    std::array<std::string_view, 4> parts_;
};

/// Where a stat owner registers its metrics: a named registry, or the
/// unnamed value_block it falls back on while no one has bound it. An
/// owner's bind_observability takes either, so one registration list
/// serves both.
class metric_store {
public:
    [[nodiscard]] counter make_counter(const metric_name& name,
                                       std::uint32_t flags = 0) {
        return counter(&slot_for(name, metric_kind::counter, flags));
    }
    [[nodiscard]] gauge make_gauge(const metric_name& name,
                                   std::uint32_t flags = 0) {
        return gauge(&slot_for(name, metric_kind::gauge, flags));
    }
    [[nodiscard]] real_gauge make_real(const metric_name& name,
                                       std::uint32_t flags = 0) {
        return real_gauge(&slot_for(name, metric_kind::real, flags));
    }
    [[nodiscard]] sample make_sample(const metric_name& name,
                                     std::uint32_t flags = 0) {
        return sample(slot_for(name, metric_kind::sample, flags).samples);
    }

protected:
    metric_store() = default;
    metric_store(metric_store&&) = default;
    metric_store& operator=(metric_store&&) = default;
    ~metric_store() = default;

private:
    virtual detail::slot& slot_for(const metric_name& name, metric_kind kind,
                                   std::uint32_t flags) = 0;
};

/// Owns named metric storage. Handles stay valid for the registry's
/// lifetime (slots and sample sets live in deques); the registry is
/// neither copyable nor movable so handles can never dangle through a
/// move.
class registry final : public metric_store {
public:
    registry() = default;
    registry(const registry&) = delete;
    registry& operator=(const registry&) = delete;
    registry(registry&&) = delete;
    registry& operator=(registry&&) = delete;

    // make_counter / make_gauge / make_real / make_sample: registering an
    // existing name with the same kind returns a handle to the existing
    // metric (idempotent re-binding); a kind mismatch is a programming
    // error and aborts in every build type.

    [[nodiscard]] std::size_t size() const { return slots_.size(); }

    /// Callback run at the start of every take_snapshot(), so owners of
    /// lazily accrued values (a sleeping Scale Element's backlog) can
    /// bring their slots up to date. Plain function pointer + context,
    /// like sim::wake_hook.
    struct sync_hook {
        void (*fn)(void*) = nullptr;
        void* ctx = nullptr;
    };
    /// Registers `hook` (assembly time); its context must outlive every
    /// snapshot taken of this registry.
    void add_sync_hook(sync_hook hook) { sync_.push_back(hook); }

    /// Runs the sync hooks, then copies current values, sorted by name.
    /// Profile-flagged metrics are skipped unless `include_profile` (they
    /// carry wall-clock noise and would break byte-identical exports).
    [[nodiscard]] snapshot take_snapshot(bool include_profile = false) const;
    /// take_snapshot() of only the metrics named `prefix`...: a walk of
    /// the sorted index from `prefix` on, after the sync hooks. Sample
    /// metrics are left out unless `samples`.
    [[nodiscard]] snapshot take_prefix(std::string_view prefix,
                                       bool samples) const;

private:
    detail::slot& slot_for(const metric_name& name, metric_kind kind,
                           std::uint32_t flags) override;

    std::deque<detail::slot> slots_;
    std::deque<stats::sample_set> samples_;
    /// Sorted name -> slot index (the one copy of each name); gives
    /// snapshots their deterministic order without sorting at snapshot
    /// time.
    std::map<std::string, detail::slot*, std::less<>> index_;
    std::vector<sync_hook> sync_;
};

/// Unnamed storage for a component that no one has bound yet: `capacity`
/// slots and the sample sets of the `samples` sample metrics among them,
/// in one allocation and nothing else -- no names, no index, no sync
/// hooks. Every make_* takes the next slot (a sample also the next set)
/// without reading the name (so nothing is idempotent), and registering
/// past either capacity aborts. Moving the block moves the allocation,
/// so handles into it stay valid.
class value_block final : public metric_store {
public:
    explicit value_block(std::size_t capacity, std::size_t samples = 0);

private:
    detail::slot& slot_for(const metric_name& name, metric_kind kind,
                           std::uint32_t flags) override;

    /// The block's layout: the slots, then the sample sets. Destroys the
    /// sets before freeing the block.
    struct layout {
        std::uint32_t capacity = 0;
        std::uint32_t samples = 0;
        [[nodiscard]] stats::sample_set* sets(detail::slot* block) const {
            return reinterpret_cast<stats::sample_set*>(block + capacity);
        }
        void operator()(detail::slot* block) const;
    };

    std::unique_ptr<detail::slot, layout> slots_;
    std::uint32_t size_ = 0;
    std::uint32_t samples_used_ = 0;
};

} // namespace bluescale::obs
