#include "common/logging.h"

#include <cstdio>
#include <vector>

namespace ulpdp {

namespace {

bool logging_enabled = true;
uint64_t warning_count = 0;

} // anonymous namespace

namespace detail {

std::string
formatMessage(const char *fmt, va_list args)
{
    va_list args_copy;
    va_copy(args_copy, args);
    int len = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (len < 0)
        return std::string(fmt);

    std::vector<char> buf(static_cast<size_t>(len) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<size_t>(len));
}

void
emit(const char *tag, const std::string &msg)
{
    std::fprintf(stderr, "%s: %s\n", tag, msg.c_str());
}

} // namespace detail

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = detail::formatMessage(fmt, args);
    va_end(args);
    if (logging_enabled)
        detail::emit("panic", msg);
    throw PanicError(msg);
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = detail::formatMessage(fmt, args);
    va_end(args);
    if (logging_enabled)
        detail::emit("fatal", msg);
    throw FatalError(msg);
}

void
warn(const char *fmt, ...)
{
    ++warning_count;
    if (!logging_enabled)
        return;
    va_list args;
    va_start(args, fmt);
    std::string msg = detail::formatMessage(fmt, args);
    va_end(args);
    detail::emit("warn", msg);
}

void
inform(const char *fmt, ...)
{
    if (!logging_enabled)
        return;
    va_list args;
    va_start(args, fmt);
    std::string msg = detail::formatMessage(fmt, args);
    va_end(args);
    detail::emit("info", msg);
}

void
setLoggingEnabled(bool enabled)
{
    logging_enabled = enabled;
}

uint64_t
warningCount()
{
    return warning_count;
}

} // namespace ulpdp
