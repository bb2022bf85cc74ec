#include <gtest/gtest.h>

#include "core/bluescale_ic.hpp"
#include "harness/testbench.hpp"

namespace bluescale::harness {
namespace {

TEST(factory, builds_every_kind) {
    testbench_options opts;
    opts.n_clients = 16;
    opts.client_utilizations.assign(16, 0.05);
    for (ic_kind kind : k_all_kinds) {
        testbench tb(kind, opts);
        EXPECT_EQ(tb.ic().num_clients(), 16u) << kind_name(kind);
        EXPECT_TRUE(tb.ic().client_can_accept(0));
    }
}

TEST(factory, kind_names_unique) {
    std::set<std::string> names;
    for (ic_kind kind : k_all_kinds) {
        EXPECT_TRUE(names.insert(kind_name(kind)).second);
    }
}

TEST(factory, kinds_map_to_cost_model_designs) {
    EXPECT_EQ(to_design(ic_kind::bluescale), hwcost::design::bluescale);
    EXPECT_EQ(to_design(ic_kind::axi_icrt), hwcost::design::axi_icrt);
    EXPECT_EQ(to_design(ic_kind::gsmtree_tdm), hwcost::design::gsmtree);
    EXPECT_EQ(to_design(ic_kind::gsmtree_fbsp), hwcost::design::gsmtree);
}

TEST(factory, bluescale_applies_selection) {
    std::vector<analysis::task_set> clients(16);
    for (auto& s : clients) s.push_back({200, 4});

    testbench_options opts;
    opts.n_clients = 16;
    opts.rt_sets = &clients;
    testbench tb(ic_kind::bluescale, opts);
    ASSERT_TRUE(tb.selection_feasible());
    auto* bs = dynamic_cast<core::bluescale_ic*>(&tb.ic());
    ASSERT_NE(bs, nullptr);
    EXPECT_TRUE(bs->se_at(0, 0).scheduler().configured());
}

TEST(factory, bluescale_without_selection_unconfigured) {
    testbench tb(ic_kind::bluescale, {.n_clients = 16});
    auto* bs = dynamic_cast<core::bluescale_ic*>(&tb.ic());
    ASSERT_NE(bs, nullptr);
    EXPECT_FALSE(bs->se_at(0, 0).scheduler().configured());
}

TEST(factory, sixty_four_clients_all_kinds) {
    testbench_options opts;
    opts.n_clients = 64;
    opts.client_utilizations.assign(64, 0.0125);
    for (ic_kind kind : k_all_kinds) {
        testbench tb(kind, opts);
        EXPECT_EQ(tb.ic().num_clients(), 64u) << kind_name(kind);
        EXPECT_GE(tb.ic().depth_of(0), 1u);
    }
}

TEST(factory, extended_kinds_superset_of_paper_six) {
    std::set<ic_kind> paper(std::begin(k_all_kinds),
                            std::end(k_all_kinds));
    std::set<ic_kind> extended(std::begin(k_extended_kinds),
                               std::end(k_extended_kinds));
    EXPECT_EQ(paper.size(), 6u);
    EXPECT_GT(extended.size(), paper.size());
    for (ic_kind k : paper) EXPECT_TRUE(extended.count(k));
}

TEST(factory, builds_hyperconnect) {
    testbench tb(ic_kind::axi_hyperconnect, {.n_clients = 16});
    EXPECT_EQ(tb.ic().num_clients(), 16u);
    EXPECT_STREQ(kind_name(ic_kind::axi_hyperconnect),
                 "AXI-HyperConnect");
    EXPECT_EQ(to_design(ic_kind::axi_hyperconnect),
              hwcost::design::axi_icrt);
}

} // namespace
} // namespace bluescale::harness
