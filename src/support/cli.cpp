#include "support/cli.hpp"

#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "support/contract.hpp"

namespace qsm::support {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

ArgParser& ArgParser::flag_i64(const std::string& name, std::int64_t def,
                               const std::string& help) {
  flags_[name] = Flag{Kind::I64, std::to_string(def), std::to_string(def),
                      help};
  return *this;
}

ArgParser& ArgParser::flag_f64(const std::string& name, double def,
                               const std::string& help) {
  std::ostringstream os;
  os << def;
  flags_[name] = Flag{Kind::F64, os.str(), os.str(), help};
  return *this;
}

ArgParser& ArgParser::flag_bool(const std::string& name, bool def,
                                const std::string& help) {
  const std::string v = def ? "true" : "false";
  flags_[name] = Flag{Kind::Bool, v, v, help};
  return *this;
}

ArgParser& ArgParser::flag_str(const std::string& name, const std::string& def,
                               const std::string& help) {
  flags_[name] = Flag{Kind::Str, def, def, help};
  return *this;
}

void ArgParser::set(const std::string& name, const std::string& value) {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    throw std::runtime_error("unknown flag --" + name + " (see --help)");
  }
  switch (it->second.kind) {
    // A value the parse does not consume whole is rejected, not cut to
    // its numeric prefix: "--n 1e6" must not run with n = 1.
    case Kind::I64:
      try {
        std::size_t used = 0;
        (void)std::stoll(value, &used);
        if (used != value.size()) throw std::invalid_argument("trailing junk");
      } catch (const std::exception&) {
        throw std::runtime_error("flag --" + name + " expects an integer, got '" +
                                 value + "'");
      }
      break;
    case Kind::F64:
      try {
        std::size_t used = 0;
        (void)std::stod(value, &used);
        if (used != value.size()) throw std::invalid_argument("trailing junk");
      } catch (const std::exception&) {
        throw std::runtime_error("flag --" + name + " expects a number, got '" +
                                 value + "'");
      }
      break;
    case Kind::Bool:
      if (value != "true" && value != "false" && value != "1" && value != "0") {
        throw std::runtime_error("flag --" + name +
                                 " expects true/false, got '" + value + "'");
      }
      break;
    case Kind::Str:
      break;
  }
  it->second.value = value;
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(help().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      throw std::runtime_error("unexpected positional argument: " + arg);
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      set(arg.substr(0, eq), arg.substr(eq + 1));
      continue;
    }
    // "--name value" form, with "--flag" alone meaning true for booleans.
    auto it = flags_.find(arg);
    if (it != flags_.end() && it->second.kind == Kind::Bool &&
        (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0)) {
      set(arg, "true");
      continue;
    }
    if (i + 1 >= argc) {
      throw std::runtime_error("flag --" + arg + " is missing a value");
    }
    set(arg, argv[++i]);
  }
  return true;
}

const ArgParser::Flag& ArgParser::lookup(const std::string& name,
                                         Kind kind) const {
  auto it = flags_.find(name);
  QSM_REQUIRE(it != flags_.end(), "flag was never registered: " + name);
  QSM_REQUIRE(it->second.kind == kind, "flag accessed with wrong type: " + name);
  return it->second;
}

std::int64_t ArgParser::i64(const std::string& name) const {
  return std::stoll(lookup(name, Kind::I64).value);
}

int ArgParser::i32(const std::string& name) const {
  const std::int64_t v = i64(name);
  QSM_REQUIRE(v >= std::numeric_limits<int>::min() &&
                  v <= std::numeric_limits<int>::max(),
              "flag --" + name + " value " + std::to_string(v) +
                  " does not fit an int");
  return static_cast<int>(v);
}

double ArgParser::f64(const std::string& name) const {
  return std::stod(lookup(name, Kind::F64).value);
}

bool ArgParser::boolean(const std::string& name) const {
  const std::string& v = lookup(name, Kind::Bool).value;
  return v == "true" || v == "1";
}

const std::string& ArgParser::str(const std::string& name) const {
  return lookup(name, Kind::Str).value;
}

std::string ArgParser::help() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\nFlags:\n";
  for (const auto& [name, f] : flags_) {
    os << "  --" << name << " (default: " << f.def << ")\n      " << f.help
       << "\n";
  }
  return os.str();
}

}  // namespace qsm::support
