#include "util/text_codec.h"

#include <cmath>

namespace lite {

namespace {
// The characters `istream >>` skips in the "C" locale.
bool IsSpace(char c) {
  return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' ||
         c == '\f';
}

template <typename Real>
void PutReal(std::string* out, Real v, int precision) {
  char buf[40];
  auto res = std::to_chars(buf, buf + sizeof(buf), v,
                           std::chars_format::general, precision);
  out->append(buf, res.ptr);
}

template <typename Real>
bool GetReal(TextReader* reader, Real* v) {
  std::string_view tok;
  if (!reader->Token(&tok)) return false;
  Real parsed;
  auto res = std::from_chars(tok.data(), tok.data() + tok.size(), parsed,
                             std::chars_format::general);
  if (res.ec != std::errc() || res.ptr != tok.data() + tok.size() ||
      !std::isfinite(parsed)) {
    return false;
  }
  *v = parsed;
  return true;
}
}  // namespace

void TextWriter::Put(float v) { PutReal(&out_, v, 9); }
void TextWriter::Put(double v) { PutReal(&out_, v, 17); }

bool TextReader::Token(std::string_view* token) {
  while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
  if (pos_ == text_.size()) return false;
  size_t start = pos_;
  while (pos_ < text_.size() && !IsSpace(text_[pos_])) ++pos_;
  *token = text_.substr(start, pos_ - start);
  return true;
}

bool TextReader::Get(float* v) { return GetReal(this, v); }
bool TextReader::Get(double* v) { return GetReal(this, v); }

bool TextReader::AtEnd() {
  while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
  return pos_ == text_.size();
}

}  // namespace lite
