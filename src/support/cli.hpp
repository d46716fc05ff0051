// Minimal command-line flag parser for the bench / example binaries.
//
// Flags are "--name=value" or "--name value"; "--help" prints registered
// flags. Unknown flags are an error so typos in sweep scripts fail loudly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace qsm::support {

class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  /// Registers a flag with a default value and help text. Returns *this for
  /// chaining. Types: int64, double, bool, string.
  ArgParser& flag_i64(const std::string& name, std::int64_t def,
                      const std::string& help);
  ArgParser& flag_f64(const std::string& name, double def,
                      const std::string& help);
  ArgParser& flag_bool(const std::string& name, bool def,
                       const std::string& help);
  ArgParser& flag_str(const std::string& name, const std::string& def,
                      const std::string& help);

  /// Parses argv. Returns false if "--help" was requested (help is printed
  /// to stdout); throws std::runtime_error on malformed/unknown flags.
  bool parse(int argc, const char* const* argv);

  [[nodiscard]] std::int64_t i64(const std::string& name) const;
  /// An int64 flag's value as an int; throws ContractViolation naming the
  /// flag and its value when it does not fit (rather than wrapping it).
  [[nodiscard]] int i32(const std::string& name) const;
  [[nodiscard]] double f64(const std::string& name) const;
  [[nodiscard]] bool boolean(const std::string& name) const;
  [[nodiscard]] const std::string& str(const std::string& name) const;

  [[nodiscard]] std::string help() const;

 private:
  enum class Kind { I64, F64, Bool, Str };
  struct Flag {
    Kind kind;
    std::string value;  // canonical text form
    std::string def;
    std::string help;
  };

  const Flag& lookup(const std::string& name, Kind kind) const;
  void set(const std::string& name, const std::string& value);

  std::string program_;
  std::string description_;
  std::map<std::string, Flag> flags_;
};

}  // namespace qsm::support
