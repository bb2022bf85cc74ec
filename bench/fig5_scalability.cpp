// Reproduces Fig. 5: hardware scalability vs scaling factor eta
// (2^eta clients). (a) normalized area, (b) power, (c) maximum
// synthesizable frequency -- for the legacy many-core system, AXI-IC^RT
// and BlueScale, standalone and integrated.
//
//   $ ./bench/fig5_scalability [--csv out.csv]
//
// --csv writes one row per (metric, eta): metric is "area" (fraction of
// platform), "power" (W) or "fmax" (MHz); the combined columns are empty
// for fmax, which Fig. 5 only reports standalone.
#include <cstdio>

#include "harness/bench_cli.hpp"
#include "hwcost/cost_model.hpp"
#include "stats/table.hpp"

using namespace bluescale;
using namespace bluescale::hwcost;

int main(int argc, char** argv) {
    harness::bench_options defaults;
    const auto opts = harness::parse_bench_cli(
        argc, argv, defaults,
        "Fig. 5 reproduction: area / power / fmax vs scaling factor");
    const auto csv = harness::open_bench_csv(
        opts, {"metric", "eta", "clients", "legacy", "axi_icrt",
               "bluescale", "legacy_axi", "legacy_bluescale"});

    std::printf("Fig. 5 reproduction: area / power / fmax vs scaling "
                "factor eta (clients = 2^eta)\n");

    std::printf("\n(a) Area consumption (%% of platform):\n");
    stats::table area({"eta", "clients", "Legacy", "AXI-IC^RT",
                       "BlueScale", "Legacy+AXI", "Legacy+BlueScale"});
    for (std::uint32_t eta = 1; eta <= 7; ++eta) {
        const std::uint32_t n = 1u << eta;
        const double legacy = legacy_area_fraction(n);
        const double axi = area_fraction(design::axi_icrt, n);
        const double bs = area_fraction(design::bluescale, n);
        area.add_row({std::to_string(eta), std::to_string(n),
                      stats::table::pct(legacy, 1),
                      stats::table::pct(axi, 1), stats::table::pct(bs, 1),
                      stats::table::pct(legacy + axi, 1),
                      stats::table::pct(legacy + bs, 1)});
        if (csv != nullptr) {
            csv->add_row({"area", std::to_string(eta), std::to_string(n),
                          std::to_string(legacy), std::to_string(axi),
                          std::to_string(bs), std::to_string(legacy + axi),
                          std::to_string(legacy + bs)});
        }
    }
    area.print();

    std::printf("\n(b) Power consumption (W):\n");
    stats::table power({"eta", "clients", "Legacy", "AXI-IC^RT",
                        "BlueScale", "Legacy+AXI", "Legacy+BlueScale"});
    for (std::uint32_t eta = 1; eta <= 7; ++eta) {
        const std::uint32_t n = 1u << eta;
        const double legacy = legacy_power_w(n);
        const double axi = power_w(design::axi_icrt, n);
        const double bs = power_w(design::bluescale, n);
        power.add_row({std::to_string(eta), std::to_string(n),
                       stats::table::num(legacy, 3),
                       stats::table::num(axi, 3),
                       stats::table::num(bs, 3),
                       stats::table::num(legacy + axi, 3),
                       stats::table::num(legacy + bs, 3)});
        if (csv != nullptr) {
            csv->add_row({"power", std::to_string(eta), std::to_string(n),
                          std::to_string(legacy), std::to_string(axi),
                          std::to_string(bs), std::to_string(legacy + axi),
                          std::to_string(legacy + bs)});
        }
    }
    power.print();

    std::printf("\n(c) Maximum frequency (MHz):\n");
    stats::table fmax({"eta", "clients", "Legacy", "AXI-IC^RT",
                       "BlueScale"});
    for (std::uint32_t eta = 1; eta <= 7; ++eta) {
        const std::uint32_t n = 1u << eta;
        const double legacy = legacy_fmax_mhz(n);
        const double axi = fmax_mhz(design::axi_icrt, n);
        const double bs = fmax_mhz(design::bluescale, n);
        fmax.add_row({std::to_string(eta), std::to_string(n),
                      stats::table::num(legacy, 0),
                      stats::table::num(axi, 0),
                      stats::table::num(bs, 0)});
        if (csv != nullptr) {
            csv->add_row({"fmax", std::to_string(eta), std::to_string(n),
                          std::to_string(legacy), std::to_string(axi),
                          std::to_string(bs), "", ""});
        }
    }
    fmax.print();

    std::printf("\nObs 3 check: AXI-IC^RT drops below the legacy system "
                "past eta = 5; BlueScale never does.\n");
    return 0;
}
