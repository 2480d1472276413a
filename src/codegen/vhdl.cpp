#include "codegen/vhdl.hpp"

#include <sstream>

#include "codegen/verilog.hpp"  // sanitize_identifier

namespace addm::codegen {

using netlist::Cell;
using netlist::CellType;
using netlist::Netlist;
using netlist::NetId;

namespace {

// VHDL reserved words that plausibly appear as port names get an "_i" suffix
// ("next" is the paper's own control-signal name).
std::string vhdl_identifier(const std::string& name) {
  std::string s = sanitize_identifier(name);
  for (const char* kw : {"next", "in", "out", "is", "of", "all", "signal", "register"})
    if (s == kw) return s + "_i";
  return s;
}

// "n<id>", the name of an internal signal.
std::string wire_name(NetId n) {
  std::string s = "n";
  s += std::to_string(n);
  return s;
}

std::string net_ref(const Netlist& nl, NetId n) {
  if (n == netlist::kConst0) return "'0'";
  if (n == netlist::kConst1) return "'1'";
  for (std::size_t i = 0; i < nl.inputs().size(); ++i)
    if (nl.inputs()[i] == n) return vhdl_identifier(nl.input_name(i));
  return wire_name(n);
}

}  // namespace

std::string to_structural_vhdl(const Netlist& nl, const std::string& entity_name) {
  std::ostringstream os;
  os << "-- Generated by SRAdGen (addm reproduction); do not edit.\n";
  os << "library ieee;\nuse ieee.std_logic_1164.all;\n\n";
  os << "entity " << entity_name << " is\n  port (\n    clk : in std_logic";
  for (std::size_t i = 0; i < nl.inputs().size(); ++i)
    os << ";\n    " << vhdl_identifier(nl.input_name(i)) << " : in std_logic";
  for (std::size_t i = 0; i < nl.outputs().size(); ++i)
    os << ";\n    " << vhdl_identifier(nl.output_name(i)) << " : out std_logic";
  os << "\n  );\nend entity " << entity_name << ";\n\n";

  os << "architecture rtl of " << entity_name << " is\n";
  for (const Cell& c : nl.cells()) os << "  signal n" << c.output << " : std_logic;\n";
  os << "begin\n\n";

  for (const Cell& c : nl.cells()) {
    if (is_sequential(c.type)) continue;
    const auto in = [&](int k) { return net_ref(nl, c.inputs[static_cast<std::size_t>(k)]); };
    const std::string out = wire_name(c.output);
    switch (c.type) {
      case CellType::Inv:   os << "  " << out << " <= not " << in(0) << ";\n"; break;
      case CellType::Buf:   os << "  " << out << " <= " << in(0) << ";\n"; break;
      case CellType::Nand2: os << "  " << out << " <= " << in(0) << " nand " << in(1) << ";\n"; break;
      case CellType::Nor2:  os << "  " << out << " <= " << in(0) << " nor " << in(1) << ";\n"; break;
      case CellType::And2:  os << "  " << out << " <= " << in(0) << " and " << in(1) << ";\n"; break;
      case CellType::Or2:   os << "  " << out << " <= " << in(0) << " or " << in(1) << ";\n"; break;
      case CellType::Xor2:  os << "  " << out << " <= " << in(0) << " xor " << in(1) << ";\n"; break;
      case CellType::Xnor2: os << "  " << out << " <= " << in(0) << " xnor " << in(1) << ";\n"; break;
      case CellType::Mux2:
        os << "  " << out << " <= " << in(2) << " when " << in(0) << " = '1' else " << in(1)
           << ";\n";
        break;
      default: break;
    }
  }
  os << "\n  registers : process (clk)\n  begin\n    if rising_edge(clk) then\n";
  for (const Cell& c : nl.cells()) {
    if (!is_sequential(c.type)) continue;
    const auto in = [&](int k) { return net_ref(nl, c.inputs[static_cast<std::size_t>(k)]); };
    const std::string q = wire_name(c.output);
    switch (c.type) {
      case CellType::Dff:
        os << "      " << q << " <= " << in(0) << ";\n";
        break;
      case CellType::DffR:
        os << "      if " << in(1) << " = '1' then " << q << " <= '0'; else " << q
           << " <= " << in(0) << "; end if;\n";
        break;
      case CellType::DffS:
        os << "      if " << in(1) << " = '1' then " << q << " <= '1'; else " << q
           << " <= " << in(0) << "; end if;\n";
        break;
      case CellType::DffE:
        os << "      if " << in(1) << " = '1' then " << q << " <= " << in(0)
           << "; end if;\n";
        break;
      case CellType::DffER:
        os << "      if " << in(2) << " = '1' then " << q << " <= '0'; elsif " << in(1)
           << " = '1' then " << q << " <= " << in(0) << "; end if;\n";
        break;
      case CellType::DffES:
        os << "      if " << in(2) << " = '1' then " << q << " <= '1'; elsif " << in(1)
           << " = '1' then " << q << " <= " << in(0) << "; end if;\n";
        break;
      default: break;
    }
  }
  os << "    end if;\n  end process;\n\n";

  for (std::size_t i = 0; i < nl.outputs().size(); ++i)
    os << "  " << vhdl_identifier(nl.output_name(i)) << " <= "
       << net_ref(nl, nl.outputs()[i]) << ";\n";
  os << "\nend architecture rtl;\n";
  return os.str();
}

std::string srag_to_behavioral_vhdl(const core::SragConfig& cfg,
                                    const std::string& entity_name) {
  cfg.check();
  std::ostringstream os;
  os << "-- SRAG generated by SRAdGen (addm reproduction).\n";
  os << "-- registers=" << cfg.num_registers() << " flipflops=" << cfg.num_flipflops()
     << " dC=" << cfg.div_count << " pC=" << cfg.pass_count << "\n";
  os << "library ieee;\nuse ieee.std_logic_1164.all;\nuse ieee.numeric_std.all;\n\n";
  os << "entity " << entity_name << " is\n  port (\n"
     << "    clk   : in  std_logic;\n"
     << "    next_i : in  std_logic;\n"
     << "    reset : in  std_logic;\n"
     << "    sel   : out std_logic_vector(" << cfg.num_select_lines - 1 << " downto 0)\n"
     << "  );\nend entity " << entity_name << ";\n\n";

  os << "architecture behavioral of " << entity_name << " is\n";
  for (std::size_t i = 0; i < cfg.num_registers(); ++i)
    os << "  signal s" << i << " : std_logic_vector(" << cfg.registers[i].size() - 1
       << " downto 0);\n";
  os << "  signal div_cnt  : unsigned(15 downto 0);\n";
  os << "  signal pass_cnt : unsigned(15 downto 0);\n";
  os << "  signal enable, pass : std_logic;\n";
  os << "begin\n\n";

  os << "  enable <= next_i when div_cnt = " << cfg.div_count - 1 << " else '0';\n";
  os << "  pass   <= '1' when pass_cnt = " << cfg.pass_count - 1 << " else '0';\n\n";

  os << "  control : process (clk)\n  begin\n    if rising_edge(clk) then\n"
     << "      if reset = '1' then\n        div_cnt <= (others => '0');\n"
     << "        pass_cnt <= (others => '0');\n"
     << "      else\n"
     << "        if next_i = '1' then\n"
     << "          if div_cnt = " << cfg.div_count - 1 << " then div_cnt <= (others => '0');\n"
     << "          else div_cnt <= div_cnt + 1; end if;\n"
     << "        end if;\n"
     << "        if enable = '1' then\n"
     << "          if pass_cnt = " << cfg.pass_count - 1 << " then pass_cnt <= (others => '0');\n"
     << "          else pass_cnt <= pass_cnt + 1; end if;\n"
     << "        end if;\n"
     << "      end if;\n    end if;\n  end process;\n\n";

  os << "  shift : process (clk)\n  begin\n    if rising_edge(clk) then\n"
     << "      if reset = '1' then\n";
  for (std::size_t i = 0; i < cfg.num_registers(); ++i) {
    os << "        s" << i << " <= (others => '0');\n";
  }
  os << "        s0(0) <= '1';\n"
     << "      elsif enable = '1' then\n";
  const std::size_t n = cfg.num_registers();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t len = cfg.registers[i].size();
    const std::size_t prev = (i + n - 1) % n;
    const std::size_t prev_last = cfg.registers[prev].size() - 1;
    if (len > 1)
      os << "        s" << i << "(" << len - 1 << " downto 1) <= s" << i << "("
         << len - 2 << " downto 0);\n";
    os << "        if pass = '1' then s" << i << "(0) <= s" << prev << "(" << prev_last
       << "); else s" << i << "(0) <= s" << i << "(" << len - 1 << "); end if;\n";
  }
  os << "      end if;\n    end if;\n  end process;\n\n";

  // Select-line mapping.
  std::vector<std::string> drivers(cfg.num_select_lines, "'0'");
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < cfg.registers[i].size(); ++j) {
      std::string d = "s";
      d += std::to_string(i);
      d += '(';
      d += std::to_string(j);
      d += ')';
      drivers[cfg.registers[i][j]] = std::move(d);
    }
  for (std::size_t k = 0; k < drivers.size(); ++k)
    os << "  sel(" << k << ") <= " << drivers[k] << ";\n";
  os << "\nend architecture behavioral;\n";
  return os.str();
}

}  // namespace addm::codegen
