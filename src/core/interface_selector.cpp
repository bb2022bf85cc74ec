#include "core/interface_selector.hpp"

#include "core/parameter_path.hpp"

namespace bluescale::core {

bool interface_selector::load_task(std::uint8_t client_port,
                                   std::uint8_t task_id,
                                   std::uint32_t period,
                                   std::uint32_t wcet) {
    if (table_.size() >= table_depth_) return false;
    table_.push_back({static_cast<std::uint8_t>(client_port & 0x3), task_id,
                      period, wcet});
    return true;
}

selector_result
interface_selector::select(double level_utilization,
                           const analysis::analysis_context& ctx) const {
    selector_result result;

    analysis::analysis_context counted = ctx;
    counted.sched.stats = &result.work;

    for (std::uint8_t port = 0; port < 4; ++port) {
        analysis::task_set tasks;
        for (const auto& entry : table_) {
            if (entry.client == port) {
                tasks.push_back({entry.period, entry.wcet});
            }
        }
        result.interfaces[port] =
            analysis::select_interface(tasks, level_utilization, counted);
    }

    result.estimated_cycles = reconfig_costs{}.fsm_cycles(result.work);
    return result;
}

} // namespace bluescale::core
