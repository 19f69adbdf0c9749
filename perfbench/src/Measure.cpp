//===- perfbench/src/Measure.cpp ------------------------------------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//

#include "Measure.h"

#include <cmath>
#include <fstream>
#include <unistd.h>

namespace perfbench {

std::size_t residentBytes() {
  std::ifstream In("/proc/self/statm");
  std::size_t Size = 0, Resident = 0;
  if (!(In >> Size >> Resident))
    return 0;
  return Resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string MetricTable::json(bool WithSamples) const {
  std::string Out = "{";
  for (std::size_t I = 0; I != Rows.size(); ++I) {
    const Row &R = Rows[I];
    if (I)
      Out += ", ";
    Out += jsonString(R.Name) + ": {\"value\": " + jsonNumber(R.Value) +
           ", \"unit\": " + jsonString(R.Unit);
    if (WithSamples && R.Samples)
      Out += ", \"samples\": " + std::to_string(R.Samples);
    Out += "}";
  }
  return Out + "}";
}

} // namespace perfbench
