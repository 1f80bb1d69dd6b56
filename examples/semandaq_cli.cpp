// Interactive command shell over an in-process SemandaqService — the
// command-line stand-in for the paper's web-based data explorer. It speaks
// exactly the grammar semandaq_server serves, with one session.
//
//   ./build/examples/semandaq_cli                 # run the built-in demo
//   ./build/examples/semandaq_cli -               # read commands from stdin
//   ./build/examples/semandaq_cli "gen customer 100 5" "detect customer" ...
//
// Type `help` for the command reference.

#include <cstdio>
#include <iostream>
#include <string>

#include "server/service.h"

namespace {

using semandaq::server::SemandaqService;

int RunCommand(SemandaqService* service, SemandaqService::SessionState* session,
               const std::string& line) {
  auto out = service->Execute(session, line);
  if (!out.ok()) {
    std::printf("error: %s\n", out.status().ToString().c_str());
    return 1;
  }
  if (!out->empty()) std::printf("%s", out->c_str());
  return 0;
}

constexpr const char* kDemoScript[] = {
    "gen customer 200 6",
    "cfd customer: [CNT, ZIP] -> [CITY]",
    "cfd customer: [CNT=UK, ZIP=_] -> [STR=_]",
    "cfd customer: [CC] -> [CNT] { (44 | UK), (31 | NL), (1 | US) }",
    "validate customer",
    "detect customer",
    "detect customer sql",
    "map customer 8",
    "report customer",
    "sql SELECT CNT, COUNT(*) AS n FROM customer GROUP BY CNT ORDER BY n DESC",
    "clean customer",
    "diff",
    "apply",
    "detect customer",
};

}  // namespace

int main(int argc, char** argv) {
  SemandaqService service;
  SemandaqService::SessionState session;

  if (argc > 1 && std::string(argv[1]) == "-") {
    std::string line;
    while (std::getline(std::cin, line)) {
      if (line == "quit" || line == "exit") break;
      RunCommand(&service, &session, line);
    }
    return 0;
  }
  if (argc > 1) {
    for (int i = 1; i < argc; ++i) {
      std::printf(">> %s\n", argv[i]);
      if (RunCommand(&service, &session, argv[i]) != 0) return 1;
    }
    return 0;
  }
  std::printf("(no arguments: running the built-in demo script; "
              "use '-' for stdin mode)\n\n");
  for (const char* line : kDemoScript) {
    std::printf(">> %s\n", line);
    RunCommand(&service, &session, line);
    std::printf("\n");
  }
  return 0;
}
