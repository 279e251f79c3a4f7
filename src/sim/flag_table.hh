/**
 * @file
 * The command-line flags of the msgsim tools, declared once per tool.
 *
 * A tool declares each flag with the variable it sets and a help
 * line; FlagTable parses argv into those variables, rejects anything
 * it cannot read, and generates --help from the same declarations:
 *
 *     check::ScenarioConfig cfg;
 *     bool quiet = false;
 *     obs::Options obsOpts;
 *     cli::FlagTable flags("msgsim-check", "The model checker.");
 *     flags.choice("--substrate=NAME", cfg.substrate, allSubstrates,
 *                  substrateFromString, "routing substrate")
 *         .number("--nodes=N", cfg.nodes, "machine size", 2, 8)
 *         .toggle("--quiet", quiet, "suppress the summary")
 *         .observability(obsOpts);
 *     flags.parse(argc, argv); // --help: exit 0, a bad flag: exit 2
 *
 * The rules every tool shares:
 *  - a long flag takes its value as --flag=VALUE, a short one
 *    ("-j N") as "-j N" or "-jN";
 *  - a number is decimal and the whole value must parse and lie in
 *    the flag's range (a leading zero is not octal, an unsigned flag
 *    takes no sign);
 *  - a name must be one the flag's owner accepts;
 *  - a flag given twice keeps its last value; a list flag collects
 *    every value;
 *  - an unknown flag, or an argument that is not a flag where the
 *    tool takes none, is an error.
 */

#ifndef MSGSIM_SIM_FLAG_TABLE_HH
#define MSGSIM_SIM_FLAG_TABLE_HH

#include <charconv>
#include <concepts>
#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/obs_cli.hh"

namespace msgsim::cli
{

/**
 * Read @p text into @p target if the whole of it is a decimal integer
 * in [@p min, @p max]; otherwise leave @p target and return false.
 */
template <std::integral T>
bool
parseNumber(const std::string &text, T &target,
            std::type_identity_t<T> min, std::type_identity_t<T> max)
{
    T x{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, x);
    if (ec != std::errc() || ptr != end || x < min || x > max)
        return false;
    target = x;
    return true;
}

class FlagTable
{
  public:
    /** @p tool names the program in messages; @p about opens --help. */
    FlagTable(std::string tool, std::string about);

    /** A flag without a value ("--quiet"): sets @p target to true. */
    FlagTable &toggle(const char *spelling, bool &target,
                      const char *help);

    /** A free-form value ("--json-out=FILE"). */
    FlagTable &text(const char *spelling, std::string &target,
                    const char *help);

    /** A repeatable value ("--filter=GLOB"): each one is appended. */
    FlagTable &list(const char *spelling, std::vector<std::string> &target,
                    const char *help);

    /** Arguments that are not flags (none are accepted without this). */
    FlagTable &positionals(const char *meta,
                           std::vector<std::string> &target,
                           const char *help);

    /** A decimal integer in [@p min, @p max] ("--nodes=N", "-j N"). */
    template <std::integral T>
    FlagTable &
    number(const char *spelling, T &target, const char *help,
           std::type_identity_t<T> min = std::numeric_limits<T>::min(),
           std::type_identity_t<T> max = std::numeric_limits<T>::max())
    {
        using Limits = std::numeric_limits<T>;
        const std::string lo = std::to_string(+min);
        const std::string hi = std::to_string(+max);
        Flag f = declare(spelling, help);
        f.shown = std::to_string(+target);
        f.want = "a decimal integer in [" + lo + ", " + hi + "]";
        if (max != Limits::max())
            f.note = min == Limits::min() ? "<= " + hi : lo + ".." + hi;
        else if (min != Limits::min())
            f.note = ">= " + lo;
        f.set = [&target, min, max](const std::string &v) {
            return parseNumber(v, target, min, max);
        };
        return add(std::move(f));
    }

    /** A finite decimal number ("--hot=F"). */
    FlagTable &number(const char *spelling, double &target,
                      const char *help);

    /** One of @p names ("--protocol=NAME"). */
    FlagTable &choice(const char *spelling, std::string &target,
                      std::vector<std::string> names, const char *help);

    /**
     * One of the enum's @p values, named by toString() and read by
     * the owner's @p parse (which may accept more spellings).
     * @p target is the enum, a std::optional of it (left empty
     * unless the flag is given), or a std::string that keeps the
     * spelling given (for a tool that prints it back).
     */
    template <class T, class E, std::size_t N>
    FlagTable &
    choice(const char *spelling, T &target, const E (&values)[N],
           bool (*parse)(const std::string &, E &), const char *help)
    {
        constexpr bool spelled = std::is_same_v<T, std::string>;
        Flag f = declare(spelling, help);
        for (E v : values)
            f.names.emplace_back(toString(v));
        if constexpr (std::is_same_v<T, E>)
            f.shown = toString(target);
        else if constexpr (spelled)
            f.shown = target;
        f.set = [&target, parse](const std::string &v) {
            E e{};
            if (!parse(v, e))
                return false;
            if constexpr (spelled)
                target = v;
            else
                target = e;
            return true;
        };
        return add(std::move(f));
    }

    /**
     * --trace-out=FILE and --metrics-out=FILE, two text() flags into
     * @p target (an empty value is off).
     */
    FlagTable &observability(
        obs::Options &target,
        const char *traceHelp = "write a Chrome trace-event timeline",
        const char *metricsHelp = "write the metrics registry as JSON");

    /** What read() found. */
    enum class Parsed
    {
        Ok,    ///< every argument was read
        Help,  ///< --help or -h: @p message is the help text
        Error, ///< @p message says which flag is wrong and why
    };

    /** Parse @p argv into the declared variables. */
    Parsed read(int argc, char **argv, std::string &message);

    /**
     * read(), except that --help prints the help to stdout and exits
     * 0, and an error prints to stderr and exits 2.
     */
    void parse(int argc, char **argv);

    /** The --help text: every flag with its default as declared. */
    std::string help() const;

  private:
    struct Flag
    {
        std::string spelling; ///< as declared: "--nodes=N", "-j N"
        std::string name;     ///< "--nodes", "-j"
        bool valued = false;  ///< takes a value
        std::string help;
        std::string shown; ///< the default, as declared ("" = none)
        std::string note;  ///< the range, for --help ("" = none)
        std::string want;  ///< what a bad value should have been
        std::vector<std::string> names; ///< a choice's names
        /// Store a value; false = malformed.
        std::function<bool(const std::string &)> set;
    };

    Flag declare(const char *spelling, const char *help) const;
    FlagTable &add(Flag f);
    const Flag *find(const std::string &name, bool valued) const;

    std::string tool_;
    std::string about_;
    std::vector<Flag> flags_;
    std::vector<std::string> *positionals_ = nullptr;
    std::string positionalMeta_;
};

/**
 * Write @p text to the artifact @p path.  On failure print
 * "<tool>: cannot write <path>" to stderr and return false; on
 * success print "<what> written to <path>" to stdout when @p what
 * is given.
 */
bool writeFile(const std::string &tool, const std::string &path,
               const std::string &text, const char *what = nullptr);

} // namespace msgsim::cli

#endif // MSGSIM_SIM_FLAG_TABLE_HH
