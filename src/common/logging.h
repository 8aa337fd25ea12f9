/**
 * @file
 * Status and error reporting utilities.
 *
 * Follows the gem5 convention: panic() is for internal invariant
 * violations (a library bug), fatal() is for unrecoverable user errors
 * (bad configuration, invalid arguments), and warn()/inform() report
 * conditions the user should know about without stopping execution.
 */

#ifndef ULPDP_COMMON_LOGGING_H
#define ULPDP_COMMON_LOGGING_H

#include <cstdarg>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

namespace ulpdp {

/** Exception thrown by fatal() for user-caused unrecoverable errors. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/** Exception thrown by panic() for internal invariant violations. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

namespace detail {

/** Format a printf-style message into a std::string. */
std::string formatMessage(const char *fmt, va_list args);

/** Emit a tagged message on stderr. */
void emit(const char *tag, const std::string &msg);

} // namespace detail

/**
 * Report an internal invariant violation and throw PanicError.
 *
 * Call when something happens that should never happen regardless of
 * what the user does, i.e. an actual library bug.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user error and throw FatalError.
 *
 * Call when execution cannot continue due to a condition that is the
 * user's fault (bad configuration, invalid arguments).
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Warn the user about a suspicious but survivable condition. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print an informational status message. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Enable or disable logging output (useful in tests -- fault
 * campaigns trigger thousands of expected detections). Disabling
 * silences warn()/inform() entirely and suppresses the stderr line of
 * panic()/fatal(); the thrown exception still carries the message.
 */
void setLoggingEnabled(bool enabled);

/**
 * Number of warn() calls since process start.
 * Counted even while output is disabled: a warning a fault campaign
 * silenced is still a warning the device raised, and the fault-stat
 * plumbing reports it alongside the detection counters.
 */
uint64_t warningCount();

/**
 * Check a runtime invariant; panic with the stringised condition when it
 * does not hold. Unlike assert() this is active in all build types: the
 * privacy guarantees this library makes must never be compiled out.
 */
#define ULPDP_ASSERT(cond)                                                  \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::ulpdp::panic("assertion failed at %s:%d: %s", __FILE__,       \
                           __LINE__, #cond);                                \
        }                                                                   \
    } while (0)

} // namespace ulpdp

#endif // ULPDP_COMMON_LOGGING_H
