/**
 * @file
 * Machine configuration file tests: key parsing, overrides across every
 * section, comments/whitespace handling, and error cases.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/config_file.hh"
#include "util/error.hh"

namespace rsr::core
{
namespace
{

TEST(ConfigFile, CacheOverrides)
{
    auto mc = parseMachineConfig("dl1.size_bytes = 65536\n"
                                 "dl1.assoc = 8\n"
                                 "il1.hit_latency = 3\n"
                                 "l2.line_bytes = 128\n",
                                 MachineConfig::paperDefault());
    EXPECT_EQ(mc.hier.dl1.sizeBytes, 65536u);
    EXPECT_EQ(mc.hier.dl1.assoc, 8u);
    EXPECT_EQ(mc.hier.il1.hitLatency, 3u);
    EXPECT_EQ(mc.hier.l2.lineBytes, 128u);
    // Untouched fields keep the base values.
    EXPECT_EQ(mc.hier.il1.sizeBytes, 64u * 1024);
}

TEST(ConfigFile, BusAndMemOverrides)
{
    auto mc = parseMachineConfig("l1bus.width_bytes = 32\n"
                                 "l2bus.cpu_cycles_per_bus_cycle = 4\n"
                                 "mem.latency = 400\n",
                                 MachineConfig::paperDefault());
    EXPECT_EQ(mc.hier.l1Bus.widthBytes, 32u);
    EXPECT_EQ(mc.hier.l2Bus.cpuCyclesPerBusCycle, 4u);
    EXPECT_EQ(mc.hier.memLatency, 400u);
}

TEST(ConfigFile, PredictorOverrides)
{
    auto mc = parseMachineConfig("bp.pht_entries = 1024\n"
                                 "bp.history_bits = 10\n"
                                 "bp.btb_entries = 256\n"
                                 "bp.ras_entries = 16\n",
                                 MachineConfig::paperDefault());
    EXPECT_EQ(mc.bp.phtEntries, 1024u);
    EXPECT_EQ(mc.bp.historyBits, 10u);
    EXPECT_EQ(mc.bp.btbEntries, 256u);
    EXPECT_EQ(mc.bp.rasEntries, 16u);
}

TEST(ConfigFile, CoreOverrides)
{
    auto mc = parseMachineConfig("core.issue_width = 2\n"
                                 "core.rob_size = 128\n"
                                 "core.int_div_lat = 40\n"
                                 "core.store_forwarding = 1\n",
                                 MachineConfig::paperDefault());
    EXPECT_EQ(mc.core.issueWidth, 2u);
    EXPECT_EQ(mc.core.robSize, 128u);
    EXPECT_EQ(mc.core.intDivLat, 40u);
    EXPECT_TRUE(mc.core.storeForwarding);
}

TEST(ConfigFile, ZeroCoreSizeOrWidthThrows)
{
    // Each of these at zero leaves the pipeline unable to make progress;
    // it must be a user error naming the key, not a stalled run.
    for (const char *key :
         {"core.fetch_width", "core.dispatch_width", "core.issue_width",
          "core.retire_width", "core.rob_size", "core.iq_size",
          "core.lsq_size", "core.num_fus", "core.max_unresolved_branches",
          "core.fetch_buffer_size"}) {
        auto mc = MachineConfig::paperDefault();
        try {
            applyMachineOption(mc, key, "0");
            FAIL() << key << " = 0 accepted";
        } catch (const UserError &e) {
            EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
                << e.what();
        }
    }
}

TEST(ConfigFile, OverLargeCoreSizeThrows)
{
    auto mc = MachineConfig::paperDefault();
    EXPECT_THROW(applyMachineOption(mc, "core.rob_size", "4000000"),
                 UserError);
    // 2^32 + 64 must not wrap to a plausible 64.
    EXPECT_THROW(applyMachineOption(mc, "core.rob_size", "4294967360"),
                 UserError);
    EXPECT_EQ(mc.core.robSize, 64u);
    applyMachineOption(mc, "core.rob_size", "65536");
    EXPECT_EQ(mc.core.robSize, 65536u);
}

TEST(ConfigFile, ZeroCoreSizeInFileThrows)
{
    const std::string path =
        std::string(::testing::TempDir()) + "/rsr_zero_width.cfg";
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("core.rob_size = 32\ncore.retire_width = 0\n", f);
    std::fclose(f);
    EXPECT_THROW(loadMachineConfig(path, MachineConfig::paperDefault()),
                 UserError);
    std::remove(path.c_str());
}

TEST(ConfigFile, CommentsAndWhitespace)
{
    auto mc = parseMachineConfig("# a comment line\n"
                                 "\n"
                                 "   core.issue_width=8   # trailing\n"
                                 "\t\n",
                                 MachineConfig::paperDefault());
    EXPECT_EQ(mc.core.issueWidth, 8u);
}

TEST(ConfigFile, HexValues)
{
    auto mc = parseMachineConfig("mem.latency = 0x100\n",
                                 MachineConfig::paperDefault());
    EXPECT_EQ(mc.hier.memLatency, 256u);
}

TEST(ConfigFile, UnknownSectionThrows)
{
    try {
        parseMachineConfig("nic.latency = 5\n",
                           MachineConfig::paperDefault());
        FAIL() << "parseMachineConfig did not throw";
    } catch (const UserError &e) {
        EXPECT_NE(std::string(e.what()).find("unknown config section"),
                  std::string::npos);
    }
}

TEST(ConfigFile, UnknownFieldThrows)
{
    try {
        parseMachineConfig("dl1.banks = 4\n",
                           MachineConfig::paperDefault());
        FAIL() << "parseMachineConfig did not throw";
    } catch (const UserError &e) {
        EXPECT_NE(std::string(e.what()).find("unknown cache config"),
                  std::string::npos);
    }
}

TEST(ConfigFile, MalformedLineThrows)
{
    EXPECT_THROW(parseMachineConfig("dl1.size_bytes 65536\n",
                                    MachineConfig::paperDefault()),
                 UserError);
}

TEST(ConfigFile, NonIntegerValueThrows)
{
    EXPECT_THROW(parseMachineConfig("dl1.size_bytes = big\n",
                                    MachineConfig::paperDefault()),
                 UserError);
}

TEST(ConfigFile, MissingFileThrows)
{
    EXPECT_THROW(loadMachineConfig("/nonexistent/nope.cfg",
                                   MachineConfig::paperDefault()),
                 UserError);
}

} // namespace
} // namespace rsr::core
