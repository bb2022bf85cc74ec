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
#include <optional>
#include <string>
#include <vector>

#include "harness/bench_cli.hpp"
#include "hwcost/cost_model.hpp"
#include "stats/csv.hpp"
#include "stats/table.hpp"

using namespace bluescale;
using namespace bluescale::hwcost;

namespace {

/// One panel of the figure.
struct panel {
    const char* name;  ///< the CSV's metric
    const char* title;
    double (*legacy)(std::uint32_t);
    double (*of)(design, std::uint32_t);
    bool combined;     ///< also the legacy + interconnect columns
    bool percent;      ///< shown as a percentage, else `precision` decimals
    int precision;
};

constexpr panel k_panels[] = {
    {"area", "\n(a) Area consumption (% of platform):\n",
     legacy_area_fraction, area_fraction, true, true, 1},
    {"power", "\n(b) Power consumption (W):\n", legacy_power_w, power_w,
     true, false, 3},
    {"fmax", "\n(c) Maximum frequency (MHz):\n", legacy_fmax_mhz, fmax_mhz,
     false, false, 0},
};

} // namespace

int main(int argc, char** argv) {
    harness::bench_options defaults;
    const auto opts = harness::parse_bench_cli(
        argc, argv, defaults,
        "Fig. 5 reproduction: area / power / fmax vs scaling factor",
        harness::flag_csv);
    std::optional<stats::csv_writer> csv;
    if (!opts.csv_path.empty()) {
        csv.emplace(opts.csv_path,
                    std::vector<std::string>{"metric", "eta", "clients",
                                             "legacy", "axi_icrt",
                                             "bluescale", "legacy_axi",
                                             "legacy_bluescale"});
        if (!csv->ok()) {
            std::fprintf(stderr, "cannot write %s\n", opts.csv_path.c_str());
            return 1;
        }
    }

    std::printf("Fig. 5 reproduction: area / power / fmax vs scaling "
                "factor eta (clients = 2^eta)\n");

    for (const panel& p : k_panels) {
        std::fputs(p.title, stdout);
        std::vector<std::string> headings = {"eta", "clients", "Legacy",
                                             "AXI-IC^RT", "BlueScale"};
        if (p.combined) {
            headings.emplace_back("Legacy+AXI");
            headings.emplace_back("Legacy+BlueScale");
        }
        stats::table t(std::move(headings));
        for (std::uint32_t eta = 1; eta <= 7; ++eta) {
            const std::uint32_t n = 1u << eta;
            const double legacy = p.legacy(n);
            const double axi = p.of(design::axi_icrt, n);
            const double bs = p.of(design::bluescale, n);
            std::vector<double> values = {legacy, axi, bs};
            if (p.combined) {
                values.push_back(legacy + axi);
                values.push_back(legacy + bs);
            }
            std::vector<std::string> row = {std::to_string(eta),
                                            std::to_string(n)};
            std::vector<std::string> csv_row = {p.name, row[0], row[1]};
            for (double v : values) {
                row.push_back(p.percent ? stats::table::pct(v, p.precision)
                                        : stats::table::num(v, p.precision));
                csv_row.push_back(std::to_string(v));
            }
            csv_row.resize(8);
            t.add_row(std::move(row));
            if (csv) csv->add_row(csv_row);
        }
        t.print();
    }

    std::printf("\nObs 3 check: AXI-IC^RT drops below the legacy system "
                "past eta = 5; BlueScale never does.\n");
    return 0;
}
