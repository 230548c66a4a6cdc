// Number codec for the line-oriented snapshot text formats (parameter
// tensors, regression trees, forests, GBDTs).
//
// Writing goes through std::to_chars: floats as "%.9g" (exact binary32
// round trip), doubles as "%.17g" (exact binary64 round trip), integers in
// decimal — byte for byte what `ostream <<` at those precisions writes, so
// existing snapshots and their content hashes are unchanged
// (tests/text_codec_test.cc pins this). Reading goes through
// std::from_chars on whitespace-delimited tokens and is at least as strict
// as `istream >>`: a token must parse in full (no trailing garbage), reals
// must be finite and in range, integers must fit their type, and running
// out of input is an error.
#ifndef LITE_UTIL_TEXT_CODEC_H_
#define LITE_UTIL_TEXT_CODEC_H_

#include <charconv>
#include <concepts>
#include <string>
#include <string_view>

namespace lite {

template <typename T>
concept CodecInteger = std::integral<T> && !std::same_as<T, bool> &&
                       !std::same_as<T, char>;

class TextWriter {
 public:
  void Put(std::string_view s) { out_.append(s); }
  void Put(char c) { out_.push_back(c); }
  void Put(float v);   ///< 9 significant digits.
  void Put(double v);  ///< 17 significant digits.
  template <CodecInteger T>
  void Put(T v) {
    char buf[24];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out_.append(buf, res.ptr);
  }

  /// Put(a, b, ...) == Put(a); Put(b); ...
  template <typename... Ts>
    requires(sizeof...(Ts) > 1)
  void Put(const Ts&... vs) {
    (Put(vs), ...);
  }

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

class TextReader {
 public:
  explicit TextReader(std::string_view text) : text_(text) {}

  /// Next whitespace-delimited token; false at end of input.
  bool Token(std::string_view* token);

  bool Get(float* v);
  bool Get(double* v);
  template <CodecInteger T>
  bool Get(T* v) {
    std::string_view tok;
    if (!Token(&tok)) return false;
    auto res = std::from_chars(tok.data(), tok.data() + tok.size(), *v);
    return res.ec == std::errc() && res.ptr == tok.data() + tok.size();
  }

  /// Get(a, b, ...) reads each in order; false at the first failure.
  template <typename... Ts>
    requires(sizeof...(Ts) > 1)
  bool Get(Ts*... vs) {
    return (Get(vs) && ...);
  }

  /// True when only whitespace is left.
  bool AtEnd();

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace lite

#endif  // LITE_UTIL_TEXT_CODEC_H_
