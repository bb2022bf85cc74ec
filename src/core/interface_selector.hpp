// Interface selector (paper Sec. 4.3, Fig. 4): the per-SE unit on the
// parameter path. A task parameter table (74-bit entries: 2-bit client ID,
// 8-bit task ID, 32-bit period, 32-bit execution time) holds the local
// clients' task parameters; computation circuits (ALU + 2 KB scratchpad +
// FSM) run the interface selection algorithm of Sec. 5 and deliver the
// selected (Pi, Theta) to the next SE.
//
// This model computes the same selection the hardware would (via
// analysis::select_interface) and estimates the FSM's runtime in cycles
// from the work the algorithm performed, so reconfiguration latency can be
// studied (ablation A3 in DESIGN.md).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/interface_selection.hpp"
#include "analysis/rt_task.hpp"

namespace bluescale::core {

/// One 74-bit row of the task parameter table.
struct task_table_entry {
    std::uint8_t client = 0; ///< local client port, 2 bits
    std::uint8_t task = 0;   ///< task ID, 8 bits
    std::uint32_t period = 0;
    std::uint32_t wcet = 0;
};

struct selector_result {
    /// Selected interface per local client port; nullopt = infeasible.
    std::array<std::optional<analysis::resource_interface>, 4> interfaces;
    /// Estimated FSM cycles to run the selection: the default
    /// reconfig_costs::fsm_cycles of `work`.
    std::uint64_t estimated_cycles = 0;
    /// Raw algorithm work counters behind the estimate.
    analysis::sched_test_stats work;
    [[nodiscard]] bool feasible() const {
        for (const auto& i : interfaces) {
            if (!i) return false;
        }
        return true;
    }
};

class interface_selector {
public:
    /// `table_depth` 16 suffices for SEs whose local clients are other SEs
    /// (four server tasks each); leaf SEs facing many-task clients need
    /// deeper tables (customizable depth, per the paper).
    explicit interface_selector(std::size_t table_depth = 16)
        : table_depth_(table_depth) {}

    /// Loads one task's parameters. Returns false (and ignores the entry)
    /// when the table is full -- the hardware analogue of exceeding the
    /// configured depth.
    bool load_task(std::uint8_t client_port, std::uint8_t task_id,
                   std::uint32_t period, std::uint32_t wcet);

    void clear_table() { table_.clear(); }
    [[nodiscard]] std::size_t table_size() const { return table_.size(); }
    [[nodiscard]] std::size_t table_depth() const { return table_depth_; }
    [[nodiscard]] const std::vector<task_table_entry>& table() const {
        return table_;
    }

    /// Runs the Sec. 5 selection for all four local clients given the
    /// currently loaded table. `level_utilization` is U_{l+2}: the total
    /// utilization of all tasks at this level across the sibling SEs.
    [[nodiscard]] selector_result
    select(double level_utilization,
           const analysis::analysis_context& ctx = {}) const;

private:
    std::size_t table_depth_;
    std::vector<task_table_entry> table_;
};

} // namespace bluescale::core
