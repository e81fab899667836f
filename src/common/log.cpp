#include "common/log.hpp"

#include "common/run_context.hpp"

namespace saris {

namespace {
LogLevel g_threshold = LogLevel::kWarn;
}  // namespace

LogLevel log_threshold() { return g_threshold; }
void set_log_threshold(LogLevel level) { g_threshold = level; }

namespace detail {

void log_message(LogLevel level, const std::string& msg) {
  const char* tag = "?";
  switch (level) {
    case LogLevel::kDebug: tag = "DEBUG"; break;
    case LogLevel::kInfo: tag = "INFO"; break;
    case LogLevel::kWarn: tag = "WARN"; break;
    case LogLevel::kError: tag = "ERROR"; break;
  }
  // Prefix the thread's run-context tag (the job a sweep worker or System
  // cluster is simulating) so interleaved worker output is attributable.
  std::string job = run_context_tag();
  if (job.empty()) {
    std::fprintf(stderr, "[saris:%s] %s\n", tag, msg.c_str());
  } else {
    std::fprintf(stderr, "[saris:%s] [%s] %s\n", tag, job.c_str(),
                 msg.c_str());
  }
}

void check_failed(const char* file, int line, const char* expr,
                  const std::string& msg) {
  // The job tag identifies which sweep job / cluster died when a worker
  // thread takes the whole process down.
  std::string job = run_context_tag();
  if (job.empty()) {
    std::fprintf(stderr, "[saris:CHECK] %s:%d: check `%s` failed: %s\n",
                 file, line, expr, msg.c_str());
  } else {
    std::fprintf(stderr, "[saris:CHECK] [%s] %s:%d: check `%s` failed: %s\n",
                 job.c_str(), file, line, expr, msg.c_str());
  }
  std::abort();
}

}  // namespace detail
}  // namespace saris
