#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

int Tracer::begin(const char* name, std::uint64_t op) {
  Span s;
  s.name = name;
  s.op = op;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_s = now();
  spans_.push_back(s);
  const int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_s = now();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s,
                                                                s.end_s);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = p.start_s;  // end of the union covered so far
    for (auto [a, b] : kids) {
      a = std::max(a, reach);
      b = std::min(b, p.end_s);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    self[i] = p.seconds() - covered;
  }
  return self;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"op\": %llu, \"loop_ms\": %.6f}}",
                 i == 0 ? "" : ",\n", s.name, s.start_s * 1e6,
                 s.seconds() * 1e6, i, s.parent,
                 static_cast<unsigned long long>(s.op), s.loop_s * 1e3);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
