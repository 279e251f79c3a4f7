#include "sim/flag_table.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace msgsim::cli
{

namespace
{

std::string
joined(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &n : names)
        out += (out.empty() ? "" : " | ") + n;
    return out;
}

/**
 * Append @p text to @p out word by word and end the line, breaking
 * before column 80 and starting every line of it at column @p indent.
 */
void
wrapInto(std::string &out, std::size_t indent, const std::string &text)
{
    constexpr std::size_t width = 79;
    const std::size_t nl = out.rfind('\n');
    std::size_t col = nl == std::string::npos ? out.size()
                                              : out.size() - nl - 1;
    std::istringstream words(text);
    for (std::string w; words >> w;) {
        if (col > indent && col + 1 + w.size() > width) {
            out += "\n";
            col = 0;
        }
        if (col < indent) {
            out += std::string(indent - col, ' ');
            col = indent;
        } else if (col > indent) {
            out += ' ';
            ++col;
        }
        out += w;
        col += w.size();
    }
    out += '\n';
}

} // namespace

bool
parseNumber(const std::string &text, double &target, double min, double max)
{
    double x = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, x);
    if (ec != std::errc() || ptr != end || !std::isfinite(x) || x < min ||
        x > max)
        return false;
    target = x;
    return true;
}

FlagTable::FlagTable(std::string tool, std::string about)
    : tool_(std::move(tool)), about_(std::move(about))
{
}

FlagTable::Flag
FlagTable::declare(const char *spelling, const char *help) const
{
    Flag f;
    f.spelling = spelling;
    f.help = help;
    // "--name=META" or "-x META" takes a value; "--name" does not.
    const std::size_t cut = f.spelling.find_first_of("= ");
    f.name = f.spelling.substr(0, cut);
    f.valued = cut != std::string::npos;
    return f;
}

FlagTable &
FlagTable::add(Flag f)
{
    flags_.push_back(std::move(f));
    return *this;
}

const FlagTable::Flag *
FlagTable::find(const std::string &name, bool valued) const
{
    for (const Flag &f : flags_)
        if (f.name == name && f.valued == valued)
            return &f;
    return nullptr;
}

FlagTable &
FlagTable::toggle(const char *spelling, bool &target, const char *help)
{
    Flag f = declare(spelling, help);
    f.set = [&target](const std::string &) { return target = true; };
    return add(std::move(f));
}

FlagTable &
FlagTable::text(const char *spelling, std::string &target,
                const char *help)
{
    Flag f = declare(spelling, help);
    f.shown = target;
    f.set = [&target](const std::string &v) {
        target = v;
        return true;
    };
    return add(std::move(f));
}

FlagTable &
FlagTable::list(const char *spelling, std::vector<std::string> &target,
                const char *help)
{
    Flag f = declare(spelling, help);
    f.set = [&target](const std::string &v) {
        target.push_back(v);
        return true;
    };
    return add(std::move(f));
}

FlagTable &
FlagTable::positionals(const char *meta,
                       std::vector<std::string> &target,
                       const char *help)
{
    positionals_ = &target;
    positionalMeta_ = meta;
    Flag f;
    f.spelling = positionalMeta_ + "...";
    f.help = help;
    return add(std::move(f));
}

FlagTable &
FlagTable::number(const char *spelling, double &target, const char *help)
{
    Flag f = declare(spelling, help);
    char shown[32];
    std::snprintf(shown, sizeof shown, "%g", target);
    f.shown = shown;
    f.want = "a finite decimal number";
    f.set = [&target](const std::string &v) {
        return parseNumber(v, target);
    };
    return add(std::move(f));
}

FlagTable &
FlagTable::choice(const char *spelling, std::string &target,
                  std::vector<std::string> names, const char *help)
{
    Flag f = declare(spelling, help);
    f.shown = target;
    f.names = std::move(names);
    f.set = [&target, names = f.names](const std::string &v) {
        for (const std::string &n : names) {
            if (n == v) {
                target = v;
                return true;
            }
        }
        return false;
    };
    return add(std::move(f));
}

FlagTable &
FlagTable::observability(obs::Options &target, const char *traceHelp,
                         const char *metricsHelp)
{
    text("--trace-out=FILE", target.traceOut, traceHelp);
    return text("--metrics-out=FILE", target.metricsOut, metricsHelp);
}

FlagTable::Parsed
FlagTable::read(int argc, char **argv, std::string &message)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            message = help();
            return Parsed::Help;
        }
        if (arg.empty() || arg[0] != '-') {
            if (!positionals_) {
                message = "unexpected argument '" + arg + "'";
                return Parsed::Error;
            }
            positionals_->push_back(arg);
            continue;
        }
        // "--name[=value]"; a short flag is "-x" plus an attached
        // value or the next argument.
        const bool isLong = arg.rfind("--", 0) == 0;
        const std::size_t cut = isLong ? arg.find('=') : 2;
        const std::string name = arg.substr(0, cut);
        const bool attached = cut < arg.size();
        const Flag *bare = find(name, false);
        const Flag *valued = find(name, true);
        if (!bare && !valued) {
            message = "unknown flag '" + arg + "'";
            return Parsed::Error;
        }
        std::string value;
        if (attached) {
            if (!valued) {
                message = name + " takes no value";
                return Parsed::Error;
            }
            value = arg.substr(isLong ? cut + 1 : cut);
        } else if (bare) {
            bare->set(value);
            continue;
        } else if (!isLong && i + 1 < argc) {
            value = argv[++i];
        } else {
            message = name + " needs a value (" + valued->spelling + ")";
            return Parsed::Error;
        }
        if (!valued->set(value)) {
            message = name + (isLong ? "=" : " ") + value + ": want " +
                      (valued->names.empty() ? valued->want
                                             : "one of " +
                                                   joined(valued->names));
            return Parsed::Error;
        }
    }
    return Parsed::Ok;
}

void
FlagTable::parse(int argc, char **argv)
{
    std::string message;
    switch (read(argc, argv, message)) {
      case Parsed::Ok:
        return;
      case Parsed::Help:
        std::fputs(message.c_str(), stdout);
        std::exit(0);
      case Parsed::Error:
        std::fprintf(stderr, "%s: %s (see %s --help)\n", tool_.c_str(),
                     message.c_str(), tool_.c_str());
        std::exit(2);
    }
}

std::string
FlagTable::help() const
{
    std::string out = "usage: " + tool_ + " [options]";
    if (positionals_)
        out += " [" + positionalMeta_ + "...]";
    out += "\n\n";
    std::istringstream paragraphs(about_);
    for (std::string p; std::getline(paragraphs, p);)
        wrapInto(out, 0, p);
    out += "\n";

    constexpr std::size_t column = 26;
    auto line = [&out](const std::string &left, const std::string &right) {
        out += "  " + left;
        if (left.size() + 4 > column)
            out += "\n";
        wrapInto(out, column, right);
    };
    for (const Flag &f : flags_) {
        std::string text = f.help;
        if (!f.names.empty())
            text += ": " + joined(f.names);
        if (!f.note.empty())
            text += " (" + f.note + ")";
        if (!f.shown.empty())
            text += " [" + f.shown + "]";
        line(f.spelling, text);
    }
    line("--help, -h", "print this help and exit");
    return out;
}

bool
writeFile(const std::string &tool, const std::string &path,
          const std::string &text, const char *what)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    out.close();
    if (!out) {
        std::fprintf(stderr, "%s: cannot write %s\n", tool.c_str(),
                     path.c_str());
        return false;
    }
    if (what)
        std::printf("%s written to %s\n", what, path.c_str());
    return true;
}

} // namespace msgsim::cli
