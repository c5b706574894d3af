// The three roles of the kvbench binary. main.cpp is the orchestrator and
// load generator; it starts the server and the per-layer ladder as child
// processes of the same binary (`--role server`, `--role ladder`), pinned to
// CPUs disjoint from its own.
#ifndef KVBENCH_ROLES_H_
#define KVBENCH_ROLES_H_

#include <map>
#include <string>

namespace kvbench {

// Parsed "--key value" arguments.
using Args = std::map<std::string, std::string>;
Args ParseArgs(int argc, char** argv);
std::string ArgOr(const Args& args, const std::string& key, const std::string& fallback);

// Pins the calling process (and the threads it starts later) to `cpus`, a
// comma-separated CPU list. Returns false if the kernel refuses.
bool PinToCpus(const std::string& cpus);

// Server role: KvServerNet on a Runtime, driven over a line protocol on
// stdin/stdout (READY, MARK, DUMP, STOP; see server.cpp).
int ServerMain(const Args& args);
// Ladder role: per-layer microbenchmarks, one "RUNG ..." line per rung.
int LadderMain(const Args& args);

}  // namespace kvbench

#endif  // KVBENCH_ROLES_H_
