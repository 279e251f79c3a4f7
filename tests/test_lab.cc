/**
 * @file
 * Tests of the src/lab experiment engine: JSON round-tripping, glob
 * selection, deterministic parallel sweeps (-j 1 vs -j 8 must be
 * byte-identical), golden-cell mismatch reporting, the committed
 * golden files themselves, and the obs::parseArgs edge cases the
 * lab CLI depends on.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "lab/golden.hh"
#include "lab/registry.hh"
#include "lab/reporter.hh"
#include "lab/runner.hh"
#include "sim/obs_cli.hh"

using namespace msgsim;
using namespace msgsim::lab;

// ------------------------------------------------------------------
// Json
// ------------------------------------------------------------------

TEST(LabJson, RoundTripPreservesTypesAndOrder)
{
    Json obj;
    obj.set("name", Json(std::string("T1")));
    obj.set("count", Json(static_cast<std::int64_t>(42)));
    obj.set("frac", Json(0.25));
    obj.set("flag", Json(true));
    obj.set("gap", Json());
    Json arr;
    arr.push(Json(static_cast<std::int64_t>(1)));
    arr.push(Json(2.5));
    obj.set("xs", std::move(arr));

    const std::string text = obj.dump(2);
    Json back;
    std::string err;
    ASSERT_TRUE(Json::parse(text, back, &err)) << err;
    EXPECT_EQ(back.dump(2), text);

    // Field order is insertion order, not alphabetical.
    EXPECT_LT(text.find("\"name\""), text.find("\"count\""));
    EXPECT_LT(text.find("\"count\""), text.find("\"frac\""));

    // The int/real distinction round-trips through text.
    ASSERT_NE(back.find("count"), nullptr);
    EXPECT_EQ(back.find("count")->kind(), Json::Kind::Int);
    EXPECT_EQ(back.find("frac")->kind(), Json::Kind::Real);
    EXPECT_EQ(back.find("xs")->at(0).kind(), Json::Kind::Int);
    EXPECT_EQ(back.find("xs")->at(1).kind(), Json::Kind::Real);
}

TEST(LabJson, ParseRejectsGarbage)
{
    Json out;
    std::string err;
    EXPECT_FALSE(Json::parse("{\"a\": }", out, &err));
    EXPECT_FALSE(Json::parse("[1, 2,]", out, &err));
    EXPECT_FALSE(Json::parse("{} trailing", out, &err));
    EXPECT_FALSE(err.empty());
}

// ------------------------------------------------------------------
// Registry / selection
// ------------------------------------------------------------------

TEST(LabRegistry, GlobMatch)
{
    EXPECT_TRUE(globMatch("*", "anything"));
    EXPECT_TRUE(globMatch("T*", "T2a"));
    EXPECT_TRUE(globMatch("X?", "X1"));
    EXPECT_FALSE(globMatch("X?", "X10"));
    EXPECT_TRUE(globMatch("X*0", "X10"));
    EXPECT_TRUE(globMatch("*a*", "T2a"));
    EXPECT_FALSE(globMatch("T*", "F6"));
    EXPECT_FALSE(globMatch("", "x"));
    EXPECT_TRUE(globMatch("", ""));
}

TEST(LabRegistry, BuiltinCatalogCoversTheEIndex)
{
    const auto &reg = builtinRegistry();
    for (const char *name :
         {"T1", "T2a", "T2b", "T3", "F6", "F8", "D1", "D2", "A1",
          "X1", "X2", "X3a", "X3b", "X4a", "X4b", "X5", "X6", "X7",
          "X8", "X9", "X10", "S1"})
        EXPECT_NE(reg.find(name), nullptr) << name;
    EXPECT_EQ(reg.find("nope"), nullptr);

    // Glob selection preserves registration order.
    const auto ts = reg.match("T*");
    ASSERT_EQ(ts.size(), 4u);
    EXPECT_EQ(ts[0]->name, "T1");
    EXPECT_EQ(ts[3]->name, "T3");
}

// ------------------------------------------------------------------
// SweepRunner determinism
// ------------------------------------------------------------------

namespace
{

/** A cheap deterministic selection exercising several experiments. */
std::vector<const Experiment *>
cheapSelection()
{
    const auto &reg = builtinRegistry();
    std::vector<const Experiment *> sel;
    for (const char *name : {"T1", "T2a", "T2b", "F6", "D2", "X10"})
        sel.push_back(reg.find(name));
    return sel;
}

std::string
renderAll(const std::vector<ResultTable> &tables)
{
    std::string out = Reporter::markdown(tables);
    for (const auto &t : tables)
        out += t.jsonText() + "\n" + t.csv() + "\n";
    return out;
}

} // namespace

TEST(LabRunner, ParallelSweepIsByteDeterministic)
{
    const auto sel = cheapSelection();

    SweepOptions o1;
    o1.jobs = 1;
    SweepRunner r1(o1);
    const auto t1 = renderAll(r1.run(sel));

    SweepOptions o8;
    o8.jobs = 8;
    SweepRunner r8(o8);
    const auto t8 = renderAll(r8.run(sel));

    // Byte-identical markdown + JSON + CSV regardless of -j.
    EXPECT_EQ(t1, t8);

    EXPECT_EQ(r1.stats().experiments, sel.size());
    EXPECT_EQ(r1.stats().pointsRun, r8.stats().pointsRun);
    EXPECT_EQ(r1.stats().rowsEmitted, r8.stats().rowsEmitted);
}

TEST(LabRunner, WorkerExceptionsPropagate)
{
    Experiment bad;
    bad.name = "bad";
    bad.title = "throws";
    bad.columns = {"x"};
    bad.points = {"a", "b", "c"};
    bad.runPoint = [](std::size_t pi) -> std::vector<Row> {
        if (pi == 1)
            throw std::runtime_error("boom");
        return {{Cell::integer(pi)}};
    };
    SweepOptions opts;
    opts.jobs = 4;
    SweepRunner runner(opts);
    std::vector<const Experiment *> sel{&bad};
    EXPECT_THROW(runner.run(sel), std::runtime_error);
}

// ------------------------------------------------------------------
// GoldenChecker
// ------------------------------------------------------------------

namespace
{

ResultTable
tinyTable()
{
    ResultTable t;
    t.name = "tiny";
    t.title = "tiny";
    t.columns = {"row", "n", "f"};
    t.addRow({Cell::text("alpha"), Cell::integer(7), Cell::real(0.5)});
    t.addRow({Cell::text("beta"), Cell::integer(9), Cell::null()});
    return t;
}

} // namespace

TEST(LabGolden, CompareAcceptsItself)
{
    const auto t = tinyTable();
    Json golden;
    std::string err;
    ASSERT_TRUE(Json::parse(t.jsonText(), golden, &err)) << err;
    const auto rep = GoldenChecker::compare(golden, t);
    EXPECT_TRUE(rep.ok) << (rep.mismatches.empty()
                                ? ""
                                : rep.mismatches.front());
    EXPECT_TRUE(rep.mismatches.empty());
}

TEST(LabGolden, CompareReportsPreciseMismatches)
{
    const auto t = tinyTable();
    Json golden;
    std::string err;
    ASSERT_TRUE(Json::parse(t.jsonText(), golden, &err)) << err;

    // Perturb one integer cell: the report names row, label, column,
    // and both values.
    auto mutated = t;
    mutated.rows[0][1] = Cell::integer(8);
    auto rep = GoldenChecker::compare(golden, mutated);
    EXPECT_FALSE(rep.ok);
    ASSERT_EQ(rep.mismatches.size(), 1u);
    EXPECT_NE(rep.mismatches[0].find("row 0"), std::string::npos);
    EXPECT_NE(rep.mismatches[0].find("'alpha'"), std::string::npos);
    EXPECT_NE(rep.mismatches[0].find("column 'n'"), std::string::npos);
    EXPECT_NE(rep.mismatches[0].find("golden 7"), std::string::npos);
    EXPECT_NE(rep.mismatches[0].find("got 8"), std::string::npos);

    // Kind changes are mismatches even when values "look" equal.
    mutated = t;
    mutated.rows[0][1] = Cell::real(7.0);
    rep = GoldenChecker::compare(golden, mutated);
    EXPECT_FALSE(rep.ok);

    // Reals tolerate only tiny relative error.
    mutated = t;
    mutated.rows[0][2] = Cell::real(0.5 * (1 + 1e-12));
    EXPECT_TRUE(GoldenChecker::compare(golden, mutated).ok);
    mutated.rows[0][2] = Cell::real(0.5001);
    EXPECT_FALSE(GoldenChecker::compare(golden, mutated).ok);

    // Row-count and column mismatches are reported.
    mutated = t;
    mutated.rows.pop_back();
    rep = GoldenChecker::compare(golden, mutated);
    EXPECT_FALSE(rep.ok);
    EXPECT_NE(rep.mismatches[0].find("row count"), std::string::npos);

    mutated = tinyTable();
    mutated.columns[1] = "m";
    rep = GoldenChecker::compare(golden, mutated);
    EXPECT_FALSE(rep.ok);
    EXPECT_NE(rep.mismatches[0].find("column 1"), std::string::npos);
}

TEST(LabGolden, MissingGoldenFileIsFlagged)
{
    GoldenChecker checker("/nonexistent-golden-dir");
    const auto rep = checker.check(tinyTable());
    EXPECT_FALSE(rep.ok);
    EXPECT_TRUE(rep.missing);
    ASSERT_EQ(rep.mismatches.size(), 1u);
    EXPECT_NE(rep.mismatches[0].find("no golden file"),
              std::string::npos);
}

TEST(LabGolden, CommittedGoldensMatchTheSimulator)
{
    // The authoritative gate also runs as `msgsim-lab --all
    // --check-golden`; this covers a fast subset inside ctest so a
    // drifting simulator fails the tier-1 suite directly.
    const std::string dir =
        std::string(MSGSIM_SOURCE_DIR) + "/lab/golden";
    GoldenChecker checker(dir);
    SweepOptions opts;
    opts.jobs = 2;
    SweepRunner runner(opts);
    const auto tables = runner.run(cheapSelection());
    for (const auto &t : tables) {
        const auto rep = checker.check(t);
        EXPECT_TRUE(rep.ok) << (rep.mismatches.empty()
                                    ? t.name
                                    : rep.mismatches.front());
    }
}

// ------------------------------------------------------------------
// Paper-cell pins straight from the engine (independent of files).
// ------------------------------------------------------------------

TEST(LabExperiments, T1ReproducesPaperTotals)
{
    const auto *t1 = builtinRegistry().find("T1");
    ASSERT_NE(t1, nullptr);
    const auto rows = t1->runPoint(0);
    const Row *total = nullptr;
    for (const auto &r : rows)
        if (r[1].s == "Total")
            total = &r;
    ASSERT_NE(total, nullptr);
    EXPECT_EQ((*total)[2].i, 20); // paper: source 20
    EXPECT_EQ((*total)[3].i, 27); // paper: destination 27
}

TEST(LabExperiments, W1PredictsTheWholeTrafficGrid)
{
    // W1 is the golden-free analytic gate: every pattern x protocol
    // x collective row must come out "ok" with zero drift between
    // the compositional predictor and the charged run.
    const auto *w1 = builtinRegistry().find("W1");
    ASSERT_NE(w1, nullptr);
    EXPECT_TRUE(w1->goldenExempt); // model is the reference, no file
    ASSERT_EQ(w1->points.size(), 4u); // one per substrate

    const auto cols = w1->columns;
    const std::size_t statusCol = cols.size() - 1;
    ASSERT_EQ(cols[statusCol], "status");

    for (std::size_t pi = 0; pi < w1->points.size(); ++pi) {
        const auto rows = w1->runPoint(pi);
        ASSERT_FALSE(rows.empty()) << w1->points[pi];
        for (const auto &r : rows)
            EXPECT_EQ(r[statusCol].s, "ok")
                << w1->points[pi] << " row " << r[1].s << "/"
                << r[2].s;
    }
}

TEST(LabExperiments, W1IsDeterministicPerPoint)
{
    const auto *w1 = builtinRegistry().find("W1");
    ASSERT_NE(w1, nullptr);
    ResultTable a, b;
    a.name = b.name = "W1";
    a.columns = b.columns = w1->columns;
    for (const auto &r : w1->runPoint(2)) // rdma
        a.addRow(r);
    for (const auto &r : w1->runPoint(2))
        b.addRow(r);
    EXPECT_EQ(a.jsonText(), b.jsonText());
}

TEST(LabExperiments, GoldenExemptSkipsTheFileCheck)
{
    // An experiment flagged goldenExempt must not fail the golden
    // gate just because no file exists.
    const auto *w1 = builtinRegistry().find("W1");
    ASSERT_NE(w1, nullptr);
    EXPECT_TRUE(w1->goldenExempt);
    // Every non-exempt experiment keeps a golden.
    const std::string dir =
        std::string(MSGSIM_SOURCE_DIR) + "/lab/golden";
    for (const auto &e : builtinRegistry().all()) {
        if (e.goldenExempt)
            continue;
        std::ifstream is(dir + "/" + e.name + ".json");
        EXPECT_TRUE(is.good()) << e.name;
    }
}

TEST(LabExperiments, ResultTableRendersMarkdownAndCsv)
{
    const auto t = tinyTable();
    const auto md = t.markdown();
    EXPECT_NE(md.find("| row | n | f |"), std::string::npos);
    EXPECT_NE(md.find("| alpha | 7 | 0.5 |"), std::string::npos);
    EXPECT_NE(md.find("| beta | 9 | - |"), std::string::npos);
    const auto csv = t.csv();
    EXPECT_NE(csv.find("row,n,f"), std::string::npos);
    EXPECT_NE(csv.find("alpha,7,0.5"), std::string::npos);
}

// ------------------------------------------------------------------
// obs::parseArgs edge cases (the lab CLI routes argv through it).
// ------------------------------------------------------------------

namespace
{

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

    std::vector<std::string>
    remaining() const
    {
        std::vector<std::string> out;
        for (int i = 0; i < argc; ++i)
            out.emplace_back(ptrs[static_cast<std::size_t>(i)]);
        return out;
    }
};

} // namespace

TEST(ObsParseArgs, UnknownFlagsStayPositional)
{
    Argv a({"prog", "--unknown=x", "pos", "--trace-out=t.json"});
    const auto opts = obs::parseArgs(a.argc, a.argv());
    EXPECT_EQ(opts.traceOut, "t.json");
    EXPECT_TRUE(opts.wanted());
    EXPECT_EQ(a.remaining(),
              (std::vector<std::string>{"prog", "--unknown=x", "pos"}));
}

TEST(ObsParseArgs, FlagWithoutEqualsIsNotConsumed)
{
    // "--trace-out" (no '=') is not the flag; it must survive.
    Argv a({"prog", "--trace-out", "t.json"});
    const auto opts = obs::parseArgs(a.argc, a.argv());
    EXPECT_TRUE(opts.traceOut.empty());
    EXPECT_FALSE(opts.wanted());
    EXPECT_EQ(a.argc, 3);
}

TEST(ObsParseArgs, EmptyPathMeansOff)
{
    Argv a({"prog", "--trace-out=", "--metrics-out="});
    const auto opts = obs::parseArgs(a.argc, a.argv());
    EXPECT_TRUE(opts.traceOut.empty());
    EXPECT_TRUE(opts.metricsOut.empty());
    EXPECT_FALSE(opts.wanted());
    EXPECT_EQ(a.argc, 1); // the flags are still consumed
}

TEST(ObsParseArgs, RepeatedFlagLastWins)
{
    Argv a({"prog", "--metrics-out=first.json",
            "--metrics-out=second.json"});
    const auto opts = obs::parseArgs(a.argc, a.argv());
    EXPECT_EQ(opts.metricsOut, "second.json");
    EXPECT_EQ(a.argc, 1);
}
