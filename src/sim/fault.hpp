// Deterministic fault-injection campaigns (the repo's robustness axis).
//
// A fault_campaign is a seed-driven, fully precomputed schedule of typed
// fault events (SE stalls, link transient drops, DRAM transient errors,
// controller backpressure storms) aimed at numbered targets over a cycle
// horizon. A campaign is pure data: building one from the same config is
// bit-identical on every platform and for every trial-sweep thread
// count, so faulty experiments stay exactly as reproducible in a
// parallel harness::run_sweep as healthy ones. Components never draw randomness at
// injection time -- each consumes its slice of the schedule through a
// fault_window cursor that only moves forward with simulated time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace bluescale::sim {

/// The fault taxonomy (DESIGN.md Sec. 8). Each kind maps to exactly one
/// class of injection point in the assembled system.
enum class fault_kind : std::uint8_t {
    /// A fabric element forwards nothing for the window (transient upset /
    /// resynchronization); its buffers still accept. Consumed by
    /// core::scale_element. Targets index elements level-major.
    se_stall,
    /// The element's provider link silently eats requests forwarded
    /// during the window (transient link loss; recovery relies on client
    /// retry). BlueScale distributes targets over SE parent links;
    /// single-choke-point designs collapse every target onto the root
    /// link into the memory controller.
    link_drop,
    /// Transactions completing DRAM service inside the window are
    /// corrupted. The memory controller transparently retries once
    /// (ECC-style); a retry that also completes inside an error window is
    /// delivered with mem_request::failed set.
    dram_error,
    /// The memory controller refuses new work for the window (e.g. a
    /// thermal-throttle or calibration storm); the interconnect sees
    /// backpressure at its root.
    backpressure_storm,
    /// Excess DRAM maintenance (runaway scrubbing / RowHammer mitigation
    /// burst): every bank is blocked and rows close for the window, but
    /// the controller keeps accepting work. Interference the analysis-side
    /// maintenance model does NOT budget for -- the supply watchdog must
    /// catch it. Consumed by mem::maintenance_engine. Target 0.
    maintenance_storm,
    /// An analysis-service worker dies mid-request: its in-flight request
    /// is lost and must be re-queued exactly once by the service. Consumed
    /// by svc::analysis_service. Targets index worker slots.
    worker_crash,
    /// An analysis-service worker freezes for the window (e.g. a page
    /// fault storm or priority inversion on the host): its in-flight work
    /// is delayed, not lost. Consumed by svc::analysis_service. Targets
    /// index worker slots.
    worker_stall,
};

inline constexpr std::size_t k_fault_kinds = 7;

[[nodiscard]] const char* fault_kind_name(fault_kind k);

/// One scheduled fault: `kind` hits `target` over [start, start + duration).
struct fault_event {
    fault_kind kind{};
    /// Kind-scoped element index (SE linear id for se_stall/link_drop;
    /// 0 for the memory-side kinds).
    std::uint32_t target = 0;
    cycle_t start = 0;
    cycle_t duration = 0;

    friend bool operator==(const fault_event&, const fault_event&) = default;
};

struct fault_campaign_config {
    std::uint64_t seed = 1;
    /// Events start inside [0, horizon).
    cycle_t horizon = 100'000;
    /// Expected injected events per 1000 cycles across all kinds
    /// (campaign intensity; 0 = healthy system, empty schedule).
    double events_per_kcycle = 0.0;
    /// Relative likelihood of each kind; a zero weight disables the kind.
    double se_stall_weight = 1.0;
    double link_drop_weight = 1.0;
    double dram_error_weight = 1.0;
    double backpressure_weight = 0.5;
    /// Default 0: adding this kind leaves every previously seeded
    /// campaign bit-identical (the inverse-CDF pick never reaches a
    /// zero-weight tail entry).
    double maintenance_storm_weight = 0.0;
    /// Default 0 for the same bit-compatibility reason; the analysis
    /// service's storm campaigns opt in.
    double worker_crash_weight = 0.0;
    double worker_stall_weight = 0.0;
    /// Fault-targetable element count: se_stall and link_drop events pick
    /// a target uniformly in [0, n_elements).
    std::uint32_t n_elements = 1;
    /// Worker-slot count: worker_crash and worker_stall events pick a
    /// target uniformly in [0, n_workers).
    std::uint32_t n_workers = 1;
    /// Per-event window length, uniform in [min_duration, max_duration].
    cycle_t min_duration = 8;
    cycle_t max_duration = 64;
};

/// An immutable, chronologically sorted fault schedule.
class fault_campaign {
public:
    /// Empty schedule: a healthy system.
    fault_campaign() = default;
    /// Generates the schedule from the config (deterministic in cfg).
    explicit fault_campaign(const fault_campaign_config& cfg);
    /// Scripted campaign from explicit events (tests, targeted studies).
    explicit fault_campaign(std::vector<fault_event> events);

    [[nodiscard]] const std::vector<fault_event>& events() const {
        return events_;
    }
    [[nodiscard]] bool empty() const { return events_.empty(); }
    [[nodiscard]] std::size_t size() const { return events_.size(); }
    [[nodiscard]] std::uint64_t count(fault_kind k) const;

    /// Chronological windows of one (kind, target) slice.
    [[nodiscard]] std::vector<fault_event>
    slice(fault_kind k, std::uint32_t target) const;
    /// All windows of a kind regardless of target (designs with a single
    /// injection point for that kind).
    [[nodiscard]] std::vector<fault_event> slice_all(fault_kind k) const;

private:
    std::vector<fault_event> events_;
};

/// Forward-only cursor over one slice of a campaign. Components call
/// active(now) once or more per cycle; `now` must never decrease between
/// calls. Overlapping windows merge.
class fault_window {
public:
    fault_window() = default;
    explicit fault_window(std::vector<fault_event> events);

    /// True while some window covers `now`.
    [[nodiscard]] bool active(cycle_t now);

    /// Event-engine horizon: the earliest future cycle at which activity
    /// could change, valid immediately after active(now) ran for the same
    /// `now`. Inside a window (or on its closing edge) the caller must
    /// stay on the per-cycle cadence -- per-cycle fault counters and the
    /// activity transition both need real ticks -- so the horizon is
    /// now + 1; otherwise it is the next scheduled window start
    /// (k_cycle_never when the schedule is exhausted).
    [[nodiscard]] cycle_t wake_horizon(cycle_t now) const;

    [[nodiscard]] bool empty() const { return events_.empty(); }
    /// Windows the cursor has entered so far (injected-fault counter).
    [[nodiscard]] std::uint64_t activations() const { return activations_; }

private:
    std::vector<fault_event> events_; ///< sorted by start
    std::size_t cursor_ = 0;
    cycle_t active_until_ = 0; ///< exclusive end of the merged open window
    std::uint64_t activations_ = 0;
};

} // namespace bluescale::sim
