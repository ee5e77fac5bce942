// Documentation generator: renders the complete formal ISA specification
// as a markdown reference manual — one of the "once formally specified, a
// variety of tools can be derived" payoffs the paper lists (Sect. IV:
// documentation, simulators, fault-injection tooling).
//
//   spec_docgen [output.md]    (stdout by default)
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <ostream>

#include "dsl/pretty.hpp"
#include "isa/decoder.hpp"
#include "spec/registry.hpp"
#include "support/format.hpp"

using namespace binsym;

namespace {

void emit(std::ostream& os, const isa::OpcodeTable& table,
          const spec::Registry& registry) {
  os << "# RV32IM Formal Specification Reference\n\n";
  os << "Generated from the executable specification (src/spec). Encodings\n"
        "follow riscv-opcodes; semantics are rendered from the DSL AST that\n"
        "every interpreter (ISS, symbolic engine, SymEx-VP) executes.\n";

  // Group by extension, preserving table order inside a group.
  std::map<std::string, std::vector<const isa::OpcodeInfo*>> by_extension;
  for (const isa::OpcodeInfo& info : table.entries())
    by_extension[info.extension].push_back(&info);

  for (const auto& [extension, instructions] : by_extension) {
    os << "\n## Extension `" << extension << "` (" << instructions.size()
       << " instructions)\n";
    for (const isa::OpcodeInfo* info : instructions) {
      std::string upper = info->name;
      for (char& c : upper) c = static_cast<char>(std::toupper(c));
      os << "\n### " << upper << "\n\n";
      os << "| field | value |\n|---|---|\n";
      os << "| format | " << isa::format_name(info->format) << " |\n";
      os << "| mask | `" << hex32(info->mask) << "` |\n";
      os << "| match | `" << hex32(info->match) << "` |\n\n";
      const dsl::Semantics* semantics = registry.get(info->id);
      if (!semantics) {
        os << "*(no semantics registered)*\n";
        continue;
      }
      os << "```haskell\n"
         << dsl::pretty_semantics(upper, *semantics) << "```\n";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  isa::OpcodeTable table;
  spec::Registry registry;
  spec::install_rv32im(registry, table);
  spec::install_custom_madd(table, registry);  // custom instructions too
  spec::install_zbb(table, registry);          // runtime-registered extension

  if (argc > 1) {
    std::ofstream file(argv[1]);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    emit(file, table, registry);
    std::fprintf(stderr, "wrote %s\n", argv[1]);
  } else {
    emit(std::cout, table, registry);
  }
  return 0;
}
