#include "common/status.h"

namespace blaeu {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kKeyError:
      return "KeyError";
    case StatusCode::kTypeError:
      return "TypeError";
    case StatusCode::kIndexError:
      return "IndexError";
    case StatusCode::kIOError:
      return "IOError";
    case StatusCode::kInternal:
      return "Internal";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code_);
  out += ": ";
  out += msg_;
  return out;
}

}  // namespace blaeu
