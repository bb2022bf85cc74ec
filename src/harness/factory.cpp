#include "harness/factory.hpp"

namespace bluescale::harness {

const char* kind_name(ic_kind kind) {
    switch (kind) {
    case ic_kind::axi_icrt: return "AXI-IC^RT";
    case ic_kind::bluetree: return "BlueTree";
    case ic_kind::bluetree_smooth: return "BlueTree-Smooth";
    case ic_kind::gsmtree_tdm: return "GSMTree-TDM";
    case ic_kind::gsmtree_fbsp: return "GSMTree-FBSP";
    case ic_kind::bluescale: return "BlueScale";
    case ic_kind::axi_hyperconnect: return "AXI-HyperConnect";
    }
    return "?";
}

hwcost::design to_design(ic_kind kind) {
    switch (kind) {
    case ic_kind::axi_icrt: return hwcost::design::axi_icrt;
    case ic_kind::bluetree: return hwcost::design::bluetree;
    case ic_kind::bluetree_smooth: return hwcost::design::bluetree_smooth;
    case ic_kind::gsmtree_tdm:
    case ic_kind::gsmtree_fbsp: return hwcost::design::gsmtree;
    case ic_kind::bluescale: return hwcost::design::bluescale;
    case ic_kind::axi_hyperconnect:
        // No Table-1 anchor of its own; structurally a centralized
        // crossbar, so it shares AXI-IC^RT's cost/fmax model.
        return hwcost::design::axi_icrt;
    }
    return hwcost::design::bluescale;
}

} // namespace bluescale::harness
