// Arrow/RocksDB-style status and result types. All fallible public APIs in
// blaeu return Status or Result<T> instead of throwing; exceptions never
// cross module boundaries.
#pragma once

#include <cassert>
#include <optional>
#include <string>
#include <utility>
#include <variant>

namespace blaeu {

/// Machine-readable category of a failure.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kKeyError,        ///< lookup of a column/table/region that does not exist
  kTypeError,       ///< value or column used with an incompatible type
  kIndexError,      ///< out-of-bounds row/column/region index
  kIOError,         ///< CSV or file-system failure
  kInternal,        ///< invariant violation inside the library
};

/// Returns a stable human-readable name for a status code.
const char* StatusCodeName(StatusCode code);

/// \brief Outcome of a fallible operation, carrying a code and a message.
///
/// Cheap to copy in the OK case (no allocation); error states allocate one
/// string. Modeled on arrow::Status.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string msg)
      : code_(code), msg_(std::move(msg)) {}

  /// Factory helpers, one per error category.
  static Status OK() { return Status(); }
  static Status Invalid(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status KeyError(std::string msg) {
    return Status(StatusCode::kKeyError, std::move(msg));
  }
  static Status TypeError(std::string msg) {
    return Status(StatusCode::kTypeError, std::move(msg));
  }
  static Status IndexError(std::string msg) {
    return Status(StatusCode::kIndexError, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const { return code_ == other.code_; }

 private:
  StatusCode code_;
  std::string msg_;
};

/// \brief Either a value of type T or an error Status.
///
/// Modeled on arrow::Result. Dereferencing an error Result is a programming
/// error and asserts in debug builds.
template <typename T>
class Result {
 public:
  /// Implicit construction from a value (success).
  Result(T value) : state_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit construction from an error status.
  Result(Status status) : state_(std::move(status)) {  // NOLINT
    assert(!std::get<Status>(state_).ok() &&
           "Result constructed from OK status");
  }

  bool ok() const { return std::holds_alternative<T>(state_); }

  /// Error status, or OK if the result holds a value.
  Status status() const {
    if (ok()) return Status::OK();
    return std::get<Status>(state_);
  }

  const T& ValueOrDie() const& {
    assert(ok() && "ValueOrDie called on error Result");
    return std::get<T>(state_);
  }
  T& ValueOrDie() & {
    assert(ok() && "ValueOrDie called on error Result");
    return std::get<T>(state_);
  }
  T&& ValueOrDie() && {
    assert(ok() && "ValueOrDie called on error Result");
    return std::move(std::get<T>(state_));
  }

  const T& operator*() const& { return ValueOrDie(); }
  T& operator*() & { return ValueOrDie(); }
  T&& operator*() && { return std::move(*this).ValueOrDie(); }
  const T* operator->() const { return &ValueOrDie(); }
  T* operator->() { return &ValueOrDie(); }

  /// Moves the value out, or returns `alternative` on error.
  T ValueOr(T alternative) && {
    if (ok()) return std::move(std::get<T>(state_));
    return alternative;
  }

 private:
  std::variant<T, Status> state_;
};

}  // namespace blaeu

/// Propagates an error Status from the enclosing function.
#define BLAEU_RETURN_NOT_OK(expr)                 \
  do {                                            \
    ::blaeu::Status _st = (expr);                 \
    if (!_st.ok()) return _st;                    \
  } while (false)

#define BLAEU_CONCAT_IMPL(x, y) x##y
#define BLAEU_CONCAT(x, y) BLAEU_CONCAT_IMPL(x, y)

/// Assigns the value of a Result<T> expression to `lhs`, or propagates the
/// error. `lhs` may include a declaration, e.g.
/// BLAEU_ASSIGN_OR_RETURN(auto table, catalog.Get("t"));
#define BLAEU_ASSIGN_OR_RETURN(lhs, rexpr)                        \
  BLAEU_ASSIGN_OR_RETURN_IMPL(BLAEU_CONCAT(_res_, __LINE__), lhs, \
                              rexpr)

#define BLAEU_ASSIGN_OR_RETURN_IMPL(result_name, lhs, rexpr) \
  auto result_name = (rexpr);                                \
  if (!result_name.ok()) return result_name.status();        \
  lhs = std::move(result_name).ValueOrDie()
