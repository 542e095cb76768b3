#include "obs/event_stream.h"

#include <utility>

#include "common/murmur.h"

namespace pstore {
namespace obs {

void EventStream::Record(SimTime at, const std::string& what) {
  std::string line = "[";
  line += FormatSimTime(at);
  line += "] ";
  line += what;
  lines_.push_back(std::move(line));
}

void EventStream::Record(SimTime at, const std::string& category,
                         const std::string& what) {
  Record(at, category + ": " + what);
}

std::string EventStream::ToString() const {
  std::string out;
  for (const std::string& line : lines_) {
    out += line;
    out += '\n';
  }
  return out;
}

uint64_t EventStream::Fingerprint() const {
  uint64_t h = 0;
  for (const std::string& line : lines_) {
    h = MurmurHash64A(line, h);
  }
  return h;
}

}  // namespace obs
}  // namespace pstore
