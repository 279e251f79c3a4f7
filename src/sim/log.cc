#include "sim/log.hh"

#include <cstdio>
#include <cstdlib>

namespace msgsim
{
namespace log_detail
{

[[noreturn]] void
panicImpl(const char *file, int line, const std::string &msg)
{
    if (throwOnError)
        throw SimError{msg, true};
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

[[noreturn]] void
fatalImpl(const char *file, int line, const std::string &msg)
{
    if (throwOnError)
        throw SimError{msg, false};
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    std::fprintf(stdout, "info: %s\n", msg.c_str());
}

} // namespace log_detail
} // namespace msgsim
