// The evaluated interconnect designs, by kind (harness::testbench builds
// them).
#pragma once

#include <cstdint>

#include "hwcost/cost_model.hpp"

namespace bluescale::harness {

/// The six configurations of the paper's evaluation (Sec. 6), plus
/// extended baselines beyond the paper.
enum class ic_kind : std::uint8_t {
    axi_icrt,
    bluetree,
    bluetree_smooth,
    gsmtree_tdm,
    gsmtree_fbsp,
    bluescale,
    axi_hyperconnect, ///< extended baseline [15], not in the paper's six
};

/// The paper's evaluated six (Fig. 6 / Fig. 7 iterate exactly these).
inline constexpr ic_kind k_all_kinds[] = {
    ic_kind::axi_icrt,     ic_kind::bluetree,     ic_kind::bluetree_smooth,
    ic_kind::gsmtree_tdm,  ic_kind::gsmtree_fbsp, ic_kind::bluescale,
};

/// Every buildable design, extended baselines included.
inline constexpr ic_kind k_extended_kinds[] = {
    ic_kind::axi_icrt,     ic_kind::bluetree,
    ic_kind::bluetree_smooth, ic_kind::gsmtree_tdm,
    ic_kind::gsmtree_fbsp, ic_kind::bluescale,
    ic_kind::axi_hyperconnect,
};

[[nodiscard]] const char* kind_name(ic_kind kind);
[[nodiscard]] hwcost::design to_design(ic_kind kind);

} // namespace bluescale::harness
