/**
 * @file
 * Tests of the command-line flag table every msgsim tool and the
 * traced examples parse with (src/sim/flag_table.hh), observability
 * flags included.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "prof/profile.hh"
#include "sim/flag_table.hh"
#include "traffic/traffic.hh"

namespace msgsim
{
namespace
{

using cli::FlagTable;
using Parsed = FlagTable::Parsed;

/** argv fixture with stable storage. */
struct Argv
{
    explicit Argv(std::vector<std::string> args) : strings(std::move(args))
    {
        for (auto &s : strings)
            ptrs.push_back(s.data());
        ptrs.push_back(nullptr);
        argc = static_cast<int>(strings.size());
    }

    std::vector<std::string> strings;
    std::vector<char *> ptrs;
    int argc;

    char **argv() { return ptrs.data(); }
};

/** Parse @p args (after the program name) with @p flags. */
Parsed
readArgs(FlagTable &flags, std::vector<std::string> args,
         std::string &message)
{
    args.insert(args.begin(), "prog");
    Argv a(std::move(args));
    return flags.read(a.argc, a.argv(), message);
}

TEST(FlagTable, NumbersAreWholeDecimalValuesInRange)
{
    struct Case
    {
        const char *value;
        bool ok;
        std::uint32_t read;
    };
    const Case cases[] = {
        {"64", true, 64},         {"064", true, 64}, // not octal
        {"4294967295", true, 4294967295u},
        {"abc", false, 0},        {"12abc", false, 0},
        {"", false, 0},           {"-1", false, 0},  // no sign
        {"+5", false, 0},         {"0x10", false, 0},
        {"4294967296", false, 0}, // uint32 overflow
        {" 7", false, 0},
    };
    for (const Case &c : cases) {
        std::uint32_t words = 7;
        FlagTable flags("prog", "");
        flags.number("--words=N", words, "volume");
        std::string msg;
        const Parsed got =
            readArgs(flags, {std::string("--words=") + c.value}, msg);
        if (c.ok) {
            EXPECT_EQ(got, Parsed::Ok) << c.value << ": " << msg;
            EXPECT_EQ(words, c.read) << c.value;
        } else {
            EXPECT_EQ(got, Parsed::Error) << c.value;
            EXPECT_EQ(words, 7u) << c.value; // untouched
            EXPECT_NE(msg.find("--words"), std::string::npos) << msg;
        }
    }
}

TEST(FlagTable, RangeBoundsAreChecked)
{
    std::uint64_t budget = 20000;
    int window = 2;
    FlagTable flags("prog", "");
    flags.number("--budget=N", budget, "schedules", 1)
        .number("--window=W", window, "window", 1, 8);
    std::string msg;
    EXPECT_EQ(readArgs(flags, {"--budget=0"}, msg), Parsed::Error);
    EXPECT_NE(msg.find("--budget=0"), std::string::npos) << msg;
    EXPECT_EQ(readArgs(flags, {"--window=9"}, msg), Parsed::Error);
    EXPECT_EQ(readArgs(flags, {"--window=-3"}, msg), Parsed::Error);
    EXPECT_EQ(readArgs(flags, {"--budget=1", "--window=8"}, msg),
              Parsed::Ok);
    EXPECT_EQ(budget, 1u);
    EXPECT_EQ(window, 8);

    // A signed flag without a range takes a sign.
    int faults = 1;
    FlagTable signedFlags("prog", "");
    signedFlags.number("--faults=N", faults, "faults");
    EXPECT_EQ(readArgs(signedFlags, {"--faults=-2"}, msg), Parsed::Ok);
    EXPECT_EQ(faults, -2);
}

TEST(FlagTable, DoublesMustBeFinite)
{
    double hot = 0.5;
    FlagTable flags("prog", "");
    flags.number("--hot=F", hot, "hotspot fraction");
    std::string msg;
    EXPECT_EQ(readArgs(flags, {"--hot=0.25"}, msg), Parsed::Ok);
    EXPECT_DOUBLE_EQ(hot, 0.25);
    for (const char *bad : {"abc", "0.5x", "", "nan", "inf"}) {
        EXPECT_EQ(readArgs(flags, {std::string("--hot=") + bad}, msg),
                  Parsed::Error)
            << bad;
        EXPECT_NE(msg.find("--hot"), std::string::npos) << msg;
    }
    EXPECT_DOUBLE_EQ(hot, 0.25);
}

TEST(FlagTable, UnknownFlagsAndMissingValuesAreErrors)
{
    std::uint32_t nodes = 4;
    bool bug = false;
    FlagTable flags("prog", "");
    flags.number("--nodes=N", nodes, "size").toggle("--bug", bug, "bug");
    std::string msg;
    EXPECT_EQ(readArgs(flags, {"--bugg"}, msg), Parsed::Error);
    EXPECT_NE(msg.find("--bugg"), std::string::npos) << msg;
    EXPECT_EQ(readArgs(flags, {"--nodes", "8"}, msg), Parsed::Error);
    EXPECT_NE(msg.find("--nodes=N"), std::string::npos) << msg;
    EXPECT_EQ(readArgs(flags, {"--bug=1"}, msg), Parsed::Error);
    EXPECT_NE(msg.find("--bug"), std::string::npos) << msg;
    EXPECT_EQ(readArgs(flags, {"stray"}, msg), Parsed::Error);
    EXPECT_NE(msg.find("stray"), std::string::npos) << msg;
    EXPECT_EQ(nodes, 4u);
    EXPECT_FALSE(bug);
}

TEST(FlagTable, BareAndValuedFormsShareAName)
{
    std::optional<Substrate> baseline;
    bool bare = false;
    FlagTable flags("prog", "");
    flags
        .choice("--baseline=NAME", baseline, allSubstrates,
                substrateFromString, "diff against")
        .toggle("--baseline", bare, "diff cm5 against --substrate");
    std::string msg;
    EXPECT_EQ(readArgs(flags, {"--baseline"}, msg), Parsed::Ok);
    EXPECT_TRUE(bare);
    EXPECT_FALSE(baseline.has_value());
    EXPECT_EQ(readArgs(flags, {"--baseline=rdma"}, msg), Parsed::Ok);
    EXPECT_EQ(baseline, Substrate::Rdma);
    EXPECT_EQ(readArgs(flags, {"--baseline=myrinet"}, msg),
              Parsed::Error);
    EXPECT_NE(msg.find("cm5 | cr | rdma | nicam"), std::string::npos)
        << msg;
}

TEST(FlagTable, ShortFlagTakesAttachedOrNextValue)
{
    int jobs = 1;
    FlagTable flags("prog", "");
    flags.number("-j N", jobs, "workers", 1);
    std::string msg;
    EXPECT_EQ(readArgs(flags, {"-j", "4"}, msg), Parsed::Ok);
    EXPECT_EQ(jobs, 4);
    EXPECT_EQ(readArgs(flags, {"-j3"}, msg), Parsed::Ok);
    EXPECT_EQ(jobs, 3);
    EXPECT_EQ(readArgs(flags, {"-j"}, msg), Parsed::Error);
    EXPECT_NE(msg.find("-j needs a value"), std::string::npos) << msg;
    EXPECT_EQ(readArgs(flags, {"-j", "0"}, msg), Parsed::Error);
    EXPECT_EQ(readArgs(flags, {"-jx"}, msg), Parsed::Error);
    EXPECT_EQ(jobs, 3);
}

TEST(FlagTable, RepeatsListsAndPositionals)
{
    std::string out = "first";
    std::vector<std::string> filters, names;
    FlagTable flags("prog", "");
    flags.text("--json-out=DIR", out, "artifacts")
        .list("--filter=GLOB", filters, "select")
        .positionals("EXPERIMENT", names, "select by name");
    std::string msg;
    EXPECT_EQ(readArgs(flags,
                       {"--json-out=a", "T1", "--filter=X*",
                        "--json-out=b", "--filter=W?", "T2a"},
                       msg),
              Parsed::Ok);
    EXPECT_EQ(out, "b"); // the last one wins
    EXPECT_EQ(filters, (std::vector<std::string>{"X*", "W?"}));
    EXPECT_EQ(names, (std::vector<std::string>{"T1", "T2a"}));
}

TEST(FlagTable, ChoicesAreTheOwnersNames)
{
    TrafficPattern pattern = TrafficPattern::Incast;
    std::string spelled = "incast";
    std::string protocol = "xfer";
    FlagTable flags("prog", "");
    flags
        .choice("--pattern=NAME", pattern, allTrafficPatterns,
                patternFromString, "pattern")
        .choice("--spelled=NAME", spelled, allTrafficPatterns,
                patternFromString, "pattern, as given")
        .choice("--protocol=NAME", protocol, prof::protocols(), "what");
    std::string msg;
    // The owner's parser also takes its other spellings.
    EXPECT_EQ(readArgs(flags, {"--pattern=all-to-all"}, msg), Parsed::Ok);
    EXPECT_EQ(pattern, TrafficPattern::AllToAll);
    EXPECT_EQ(readArgs(flags, {"--spelled=uniform"}, msg), Parsed::Ok);
    EXPECT_EQ(spelled, "uniform");
    EXPECT_EQ(readArgs(flags, {"--spelled=bogus"}, msg), Parsed::Error);
    EXPECT_EQ(spelled, "uniform");
    EXPECT_EQ(readArgs(flags, {"--protocol=wire"}, msg), Parsed::Ok);
    EXPECT_EQ(protocol, "wire");
    EXPECT_EQ(readArgs(flags, {"--protocol=bogus"}, msg), Parsed::Error);
    EXPECT_NE(msg.find("single | am4 | xfer | stream | wire"),
              std::string::npos)
        << msg;
    EXPECT_EQ(protocol, "wire");
}

TEST(FlagTable, HelpShowsEveryFlagWithItsDeclaredDefault)
{
    std::uint32_t nodes = 4;
    Substrate substrate = Substrate::Cm5;
    bool quiet = false;
    obs::Options obsOpts;
    FlagTable flags("msgsim-demo", "Demonstrates the table.");
    flags.number("--nodes=N", nodes, "machine size", 2, 8)
        .choice("--substrate=NAME", substrate, allSubstrates,
                substrateFromString, "routing substrate")
        .toggle("--quiet", quiet, "say less")
        .observability(obsOpts);
    std::string msg;
    EXPECT_EQ(readArgs(flags, {"--nodes=6", "--help"}, msg), Parsed::Help);
    EXPECT_EQ(msg, flags.help());
    EXPECT_EQ(msg.rfind("usage: msgsim-demo [options]\n", 0), 0u) << msg;
    for (const char *want :
         {"Demonstrates the table.", "--nodes=N", "(2..8) [4]",
          "--substrate=NAME", "cm5 | cr | rdma | nicam [cm5]", "--quiet",
          "--trace-out=FILE", "--metrics-out=FILE", "--help, -h"})
        EXPECT_NE(msg.find(want), std::string::npos) << want << "\n"
                                                      << msg;
    Argv a({"prog", "-h"});
    EXPECT_EQ(flags.read(a.argc, a.argv(), msg), Parsed::Help);
}

TEST(FlagTable, ObservabilityFlagsComposeWithOthers)
{
    bool quiet = false;
    obs::Options obsOpts;
    FlagTable flags("prog", "");
    flags.toggle("--quiet", quiet, "say less").observability(obsOpts);
    std::string msg;
    EXPECT_EQ(readArgs(flags,
                       {"--trace-out=t.json", "--quiet",
                        "--metrics-out=m.json"},
                       msg),
              Parsed::Ok);
    EXPECT_EQ(obsOpts.traceOut, "t.json");
    EXPECT_EQ(obsOpts.metricsOut, "m.json");
    EXPECT_TRUE(quiet);
    EXPECT_EQ(readArgs(flags, {"--unknown=x", "--trace-out=t.json"}, msg),
              Parsed::Error);

    // Without observability() they are unknown flags.
    FlagTable bare("prog", "");
    EXPECT_EQ(readArgs(bare, {"--trace-out=t.json"}, msg), Parsed::Error);
}

// The examples' table: a count as the positional argument, beside the
// two observability flags.

TEST(FlagTable, ObservabilityFlagsBesidePositionals)
{
    std::vector<std::string> args;
    obs::Options obsOpts;
    FlagTable flags("prog", "");
    flags.positionals("COUNT", args, "how many").observability(obsOpts);
    std::string msg;
    EXPECT_EQ(readArgs(flags, {"pos", "--trace-out=t.json"}, msg),
              Parsed::Ok)
        << msg;
    EXPECT_EQ(obsOpts.traceOut, "t.json");
    EXPECT_EQ(args, std::vector<std::string>{"pos"});

    // An unknown flag is not taken for a count.
    EXPECT_EQ(readArgs(flags, {"--unknown=x", "pos"}, msg), Parsed::Error);
    EXPECT_NE(msg.find("--unknown=x"), std::string::npos) << msg;
}

TEST(FlagTable, ObservabilityFlagWithoutEqualsIsAnError)
{
    std::vector<std::string> args;
    obs::Options obsOpts;
    FlagTable flags("prog", "");
    flags.positionals("COUNT", args, "how many").observability(obsOpts);
    std::string msg;
    EXPECT_EQ(readArgs(flags, {"--trace-out", "t.json"}, msg),
              Parsed::Error);
    EXPECT_NE(msg.find("--trace-out=FILE"), std::string::npos) << msg;
    EXPECT_TRUE(obsOpts.traceOut.empty());
    EXPECT_EQ(readArgs(flags, {"--metrics-out"}, msg), Parsed::Error);
    EXPECT_NE(msg.find("--metrics-out=FILE"), std::string::npos) << msg;
}

TEST(FlagTable, ObservabilityEmptyPathMeansOff)
{
    obs::Options obsOpts{"t.json", "m.json"};
    FlagTable flags("prog", "");
    flags.observability(obsOpts);
    std::string msg;
    EXPECT_EQ(readArgs(flags, {"--trace-out=", "--metrics-out="}, msg),
              Parsed::Ok);
    EXPECT_TRUE(obsOpts.traceOut.empty());
    EXPECT_TRUE(obsOpts.metricsOut.empty());
}

TEST(FlagTable, ObservabilityRepeatedFlagLastWins)
{
    obs::Options obsOpts;
    FlagTable flags("prog", "");
    flags.observability(obsOpts);
    std::string msg;
    EXPECT_EQ(readArgs(flags,
                       {"--metrics-out=first.json",
                        "--metrics-out=second.json"},
                       msg),
              Parsed::Ok);
    EXPECT_EQ(obsOpts.metricsOut, "second.json");
}

TEST(FlagTable, ProfFlagsComposeWithObs)
{
    prof::ProfConfig cfg;
    std::optional<Substrate> baseline;
    bool bare = false;
    std::string flameOut, jsonOut;
    obs::Options obsOpts;
    FlagTable flags("msgsim-prof", "");
    flags
        .choice("--protocol=NAME", cfg.protocol, prof::protocols(), "what")
        .choice("--substrate=NAME", cfg.substrate, allSubstrates,
                substrateFromString, "primary")
        .choice("--baseline=NAME", baseline, allSubstrates,
                substrateFromString, "diff")
        .toggle("--baseline", bare, "bare diff")
        .number("--words=N", cfg.words, "volume")
        .number("--group-ack=G", cfg.groupAck, "grouping")
        .text("--flame-out=FILE", flameOut, "folded")
        .text("--json-out=FILE", jsonOut, "report")
        .observability(obsOpts);
    std::string msg;
    ASSERT_EQ(readArgs(flags,
                       {"--trace-out=t.json", "--protocol=stream",
                        "--baseline=cr", "--words=128", "--group-ack=4",
                        "--flame-out=f.folded", "--json-out=r.json"},
                       msg),
              Parsed::Ok)
        << msg;
    EXPECT_EQ(obsOpts.traceOut, "t.json");
    EXPECT_EQ(cfg.protocol, "stream");
    EXPECT_EQ(baseline, Substrate::Cr);
    EXPECT_FALSE(bare);
    EXPECT_EQ(cfg.words, 128u);
    EXPECT_EQ(cfg.groupAck, 4);
    EXPECT_EQ(flameOut, "f.folded");
    EXPECT_EQ(jsonOut, "r.json");
    EXPECT_EQ(cfg.substrate, Substrate::Cm5); // default survives
    EXPECT_EQ(cfg.nodes, 4u);
}

TEST(FlagTable, WriteFileReportsFailure)
{
    EXPECT_FALSE(
        cli::writeFile("prog", "/nonexistent-dir/artifact.json", "{}"));
}

} // namespace
} // namespace msgsim
