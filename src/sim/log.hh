/**
 * @file
 * Logging and error-reporting helpers (gem5-style semantics).
 *
 * panic()  — an internal invariant was violated: a msgsim bug.  Aborts.
 * fatal()  — the user asked for something unsupportable (bad
 *            configuration).  Exits with status 1.
 * warn()   — something questionable happened; execution continues.
 * inform() — status output for the user.
 */

#ifndef MSGSIM_SIM_LOG_HH
#define MSGSIM_SIM_LOG_HH

#include <sstream>
#include <string>

namespace msgsim
{

namespace log_detail
{

/** Concatenate arbitrary streamable arguments into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/**
 * When true, panic/fatal throw instead of terminating.  Per thread:
 * the model checker sets it around each schedule it explores, and
 * lab workers explore concurrently.
 */
inline constinit thread_local bool throwOnError = false;

/** Exception thrown by panic/fatal when throwOnError is set. */
struct SimError
{
    std::string message;
    bool isPanic;
};

} // namespace log_detail

/** Report an internal bug and abort (or throw under test). */
#define msgsim_panic(...)                                                  \
    ::msgsim::log_detail::panicImpl(                                       \
        __FILE__, __LINE__, ::msgsim::log_detail::concat(__VA_ARGS__))

/** Report an unsupportable user request and exit (or throw under test). */
#define msgsim_fatal(...)                                                  \
    ::msgsim::log_detail::fatalImpl(                                       \
        __FILE__, __LINE__, ::msgsim::log_detail::concat(__VA_ARGS__))

/** Report a suspicious condition and continue. */
#define msgsim_warn(...)                                                   \
    ::msgsim::log_detail::warnImpl(::msgsim::log_detail::concat(__VA_ARGS__))

/** Report normal status. */
#define msgsim_inform(...)                                                 \
    ::msgsim::log_detail::informImpl(                                      \
        ::msgsim::log_detail::concat(__VA_ARGS__))

} // namespace msgsim

#endif // MSGSIM_SIM_LOG_HH
