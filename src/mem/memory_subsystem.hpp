// Named memory device presets, so harnesses can say "a DDR3-1600-class
// module" instead of hand-tuning timing fields. (The paper's platform: a
// 4 GB DRAM module behind a memory controller.)
#pragma once

#include <cstdint>

#include "mem/memory_controller.hpp"

namespace bluescale {

/// Device classes with timing quantized to the interconnect clock.
enum class dram_preset : std::uint8_t {
    ddr3_1600, ///< the default model used throughout the evaluation
};

/// Controller configuration for a preset. DDR3-1600 is the default
/// controller with an honest refresh cadence: tREFI 7.8us / tRFC ~260ns
/// at the interconnect clock's scale. The dram_timing default stays 0
/// (refresh opt-in), but the named preset models the real part.
[[nodiscard]] inline memctrl_config make_memctrl_config(dram_preset) {
    memctrl_config cfg;
    cfg.timing.t_refi = 1950;
    cfg.timing.t_rfc = 65;
    return cfg;
}

} // namespace bluescale
