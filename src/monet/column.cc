#include "monet/column.h"

#include <cassert>
#include <cmath>

namespace blaeu::monet {

Column::Column(DataType type) : type_(type) {
  if (type_ == DataType::kString) dict_ = std::make_shared<Dictionary>();
}

void Column::Reserve(size_t n) {
  validity_.reserve(n);
  switch (type_) {
    case DataType::kDouble:
      doubles_.reserve(n);
      break;
    case DataType::kInt64:
      ints_.reserve(n);
      break;
    case DataType::kString:
      codes_.reserve(n);
      break;
    case DataType::kBool:
      bools_.reserve(n);
      break;
  }
}

void Column::AppendDouble(double v) {
  assert(type_ == DataType::kDouble);
  if (!std::isfinite(v)) {
    AppendNull();
    return;
  }
  doubles_.push_back(v);
  validity_.push_back(1);
}

void Column::AppendInt(int64_t v) {
  assert(type_ == DataType::kInt64);
  ints_.push_back(v);
  validity_.push_back(1);
}

void Column::AppendString(std::string_view v) {
  assert(type_ == DataType::kString);
  codes_.push_back(dict_->Intern(v));
  validity_.push_back(1);
}

void Column::AppendBool(bool v) {
  assert(type_ == DataType::kBool);
  bools_.push_back(v ? 1 : 0);
  validity_.push_back(1);
}

void Column::AppendNull() {
  switch (type_) {
    case DataType::kDouble:
      doubles_.push_back(0.0);
      break;
    case DataType::kInt64:
      ints_.push_back(0);
      break;
    case DataType::kString:
      codes_.push_back(Dictionary::kNullCode);
      break;
    case DataType::kBool:
      bools_.push_back(0);
      break;
  }
  validity_.push_back(0);
  ++null_count_;
}

Status Column::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return Status::OK();
  }
  switch (type_) {
    case DataType::kDouble:
      if (!IsNumeric(v.type()) && v.type() != DataType::kBool) {
        return Status::TypeError("cannot append " +
                                 std::string(DataTypeName(v.type())) +
                                 " to double column");
      }
      AppendDouble(v.AsDouble());
      return Status::OK();
    case DataType::kInt64:
      if (!IsNumeric(v.type()) && v.type() != DataType::kBool) {
        return Status::TypeError("cannot append " +
                                 std::string(DataTypeName(v.type())) +
                                 " to int64 column");
      }
      AppendInt(v.AsInt());
      return Status::OK();
    case DataType::kString:
      if (v.type() != DataType::kString) {
        return Status::TypeError("cannot append " +
                                 std::string(DataTypeName(v.type())) +
                                 " to string column");
      }
      AppendString(v.AsString());
      return Status::OK();
    case DataType::kBool:
      if (v.type() != DataType::kBool) {
        return Status::TypeError("cannot append " +
                                 std::string(DataTypeName(v.type())) +
                                 " to bool column");
      }
      AppendBool(v.AsBool());
      return Status::OK();
  }
  return Status::Internal("unreachable");
}

const std::string& Column::StringAt(size_t row) const {
  assert(type_ == DataType::kString && row < size());
  static const std::string kEmpty;
  const int32_t code = codes_[row];
  return code == Dictionary::kNullCode ? kEmpty : dict_->value(code);
}

Value Column::GetValue(size_t row) const {
  assert(row < size());
  if (validity_[row] == 0) return Value::Null();
  switch (type_) {
    case DataType::kDouble:
      return Value::Double(doubles_[row]);
    case DataType::kInt64:
      return Value::Int(ints_[row]);
    case DataType::kString:
      return Value::Str(dict_->value(codes_[row]));
    case DataType::kBool:
      return Value::Boolean(bools_[row] != 0);
  }
  return Value::Null();
}

double Column::GetNumeric(size_t row) const {
  assert(row < size());
  switch (type_) {
    case DataType::kDouble:
      return doubles_[row];
    case DataType::kInt64:
      return static_cast<double>(ints_[row]);
    case DataType::kBool:
      return bools_[row] ? 1.0 : 0.0;
    case DataType::kString:
      assert(false && "GetNumeric on string column");
      return 0.0;
  }
  return 0.0;
}

Column Column::Take(const std::vector<uint32_t>& indices) const {
  Column out(type_);
  if (type_ == DataType::kString) {
    // Share the dictionary: codes stay valid verbatim, so the gather is a
    // plain int32 copy and gathered columns compare codes with their source.
    out.dict_ = dict_;
  }
  out.Reserve(indices.size());
  for (uint32_t idx : indices) {
    assert(idx < size());
    if (validity_[idx] == 0) {
      out.AppendNull();
      continue;
    }
    switch (type_) {
      case DataType::kDouble:
        out.AppendDouble(doubles_[idx]);
        break;
      case DataType::kInt64:
        out.AppendInt(ints_[idx]);
        break;
      case DataType::kString:
        out.codes_.push_back(codes_[idx]);
        out.validity_.push_back(1);
        break;
      case DataType::kBool:
        out.AppendBool(bools_[idx] != 0);
        break;
    }
  }
  return out;
}

}  // namespace blaeu::monet
