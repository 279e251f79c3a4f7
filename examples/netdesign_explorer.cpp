/**
 * @file
 * Network-design explorer: the paper's §5 trade-off calculator.
 *
 * Given a hardware packet size, a message size, and an NI access
 * cost, prints the modeled software bill of each protocol/substrate
 * combination and the verdict on which network features pay for
 * themselves.  Useful for asking "what if my network delivered out
 * of order but my NI were on-chip?" style questions.
 *
 *   $ ./netdesign_explorer [packetWords] [messageWords] [devWeight]
 *
 * packetWords must be an even decimal integer >= 4, messageWords a
 * positive multiple of it and devWeight a decimal number >= 0;
 * anything else is a usage error (exit 2).
 */

#include <climits>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "model/analytic.hh"
#include "sim/flag_table.hh"

using namespace msgsim;

int
main(int argc, char **argv)
{
    std::vector<std::string> args;
    cli::FlagTable flags("netdesign_explorer",
                         "The modeled software bill of each protocol "
                         "and substrate for one packet size, message "
                         "size and NI access cost.");
    flags.positionals("PACKET MESSAGE DEV", args,
                      "packet words [4], message words [1024], NI "
                      "access weight in cycles [5]");
    flags.parse(argc, argv);
    int n = 4;
    std::uint32_t words = 1024;
    double dev_weight = 5.0;
    if (args.size() > 3 ||
        (args.size() > 0 && !cli::parseNumber(args[0], n, 4, INT_MAX)) ||
        (args.size() > 1 &&
         !cli::parseNumber(args[1], words, 1, UINT32_MAX)) ||
        (args.size() > 2 && !cli::parseNumber(args[2], dev_weight, 0)) ||
        n % 2 != 0 || words % static_cast<std::uint32_t>(n) != 0) {
        std::fprintf(stderr,
                     "netdesign_explorer: need an even packetWords >= 4, "
                     "messageWords a positive multiple of packetWords "
                     "and devWeight >= 0\n");
        return 2;
    }

    const CostModel m{"custom", 1.0, 1.0, dev_weight};
    ProtoParams p;
    p.n = n;
    p.words = words;
    p.oooFraction = 0.5;

    std::printf("packet = %d words, message = %u words (%u packets), "
                "NI access = %.1f cycles\n\n",
                n, words, p.packets(), dev_weight);

    struct Row
    {
        const char *name;
        FeatureBreakdown bd;
    };
    const Row rows[] = {
        {"CMAM finite-sequence", cmamFiniteModel(p)},
        {"CMAM indefinite-sequence", cmamStreamModel(p)},
        {"HL finite-sequence", hlFiniteModel(p)},
        {"HL indefinite-sequence", hlStreamModel(p)},
    };

    std::printf("%-28s %12s %12s %10s\n", "protocol", "instructions",
                "cycles", "overhead");
    for (const auto &r : rows)
        std::printf("%-28s %12.0f %12.0f %9.1f%%\n", r.name,
                    r.bd.grandTotal(), r.bd.weightedTotal(m),
                    r.bd.overheadFraction() * 100.0);

    std::printf("\nverdicts:\n");
    const double fin_save = hlImprovement(cmamFiniteModel(p),
                                          hlFiniteModel(p));
    const double str_save = hlImprovement(cmamStreamModel(p),
                                          hlStreamModel(p));
    std::printf("  in-order + flow control + packet-level FT in "
                "hardware saves %.0f%% on bulk transfers and %.0f%% "
                "on streams\n",
                fin_save * 100.0, str_save * 100.0);

    // Out-of-order routing's software bill (f = 0.5 vs f = 0).
    ProtoParams ordered = p;
    ordered.oooFraction = 0.0;
    const double ooo_cost = cmamStreamModel(p).grandTotal() -
                            cmamStreamModel(ordered).grandTotal();
    std::printf("  adaptive/out-of-order routing costs the stream "
                "protocol %.0f extra software instructions per "
                "message (%.1f per packet) — weigh that against the "
                "routing-latency benefit\n",
                ooo_cost, ooo_cost / p.packets());
    return 0;
}
