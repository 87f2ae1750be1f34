// The paper's §7 artifacts as one committed NDJSON request script,
// tests/golden/paper_artifacts.ndjson:
//   * per builtin (SmallBank, TPC-C, Auction) and per granularity/FK
//     setting: `check` under type-II and type-I (the Table 2 node and edge
//     counts, and the verdicts), then `subsets` under type-II (Figure 6) and
//     type-I (Figure 7);
//   * `check` on Auction(n) for the Figure 8 graph sizes (8n + 9n^2 edges,
//     n counterflow) and its robust verdict at every n.
// The script runs through RequestDispatcher, the path mvrcd serves on stdio
// and TCP, and every response, with "elapsed_us" removed, must equal the
// committed transcript tests/golden/paper_artifacts.expected.ndjson.
// Regenerate the transcript with
//   build/mvrcd < tests/golden/paper_artifacts.ndjson |
//     sed -E 's/,"elapsed_us":[0-9]+//' > tests/golden/paper_artifacts.expected.ndjson
// Timing lives in perfbench/.

#include <fstream>
#include <optional>
#include <regex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "service/dispatcher.h"
#include "service/session_manager.h"

namespace mvrc {
namespace {

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream input(path);
  EXPECT_TRUE(input.good()) << "cannot open " << path;
  std::vector<std::string> lines;
  for (std::string line; std::getline(input, line);) lines.push_back(line);
  return lines;
}

TEST(PaperTranscriptTest, ResponsesMatchTheCommittedTranscript) {
  const std::string dir = MVRC_GOLDEN_DIR;
  const std::vector<std::string> requests = ReadLines(dir + "/paper_artifacts.ndjson");
  const std::vector<std::string> expected =
      ReadLines(dir + "/paper_artifacts.expected.ndjson");
  ASSERT_FALSE(requests.empty());

  SessionManager manager;
  RequestDispatcher dispatcher(manager, ProtocolOptions(), size_t{1} << 20);
  const std::regex elapsed(",\"elapsed_us\":[0-9]+");
  std::vector<std::string> actual;
  for (const std::string& request : requests) {
    std::optional<std::string> response = dispatcher.OnLine(request);
    if (response.has_value()) actual.push_back(std::regex_replace(*response, elapsed, ""));
  }

  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "response " << i + 1 << " to " << requests[i];
  }
}

}  // namespace
}  // namespace mvrc
