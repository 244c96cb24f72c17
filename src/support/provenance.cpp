#include "support/provenance.hpp"

// The top-level CMakeLists generates PTB_GIT_SHA_HEADER at build time and
// defines PTB_BUILD_TYPE; the fallbacks keep the file compiling standalone
// (perfbench's own build, external embedders).
#ifdef PTB_GIT_SHA_HEADER
#include PTB_GIT_SHA_HEADER
#endif
#ifndef PTB_GIT_SHA
#define PTB_GIT_SHA "unknown"
#endif
#ifndef PTB_BUILD_TYPE
#define PTB_BUILD_TYPE "unknown"
#endif

namespace ptb::support {

const char* git_sha() { return PTB_GIT_SHA; }

const char* build_type() { return PTB_BUILD_TYPE; }

void write_provenance_json(std::FILE* f, const RunProvenance* run) {
  std::fprintf(f, "{\"git_sha\": \"%s\", \"build_type\": \"%s\"", git_sha(),
               build_type());
  if (run != nullptr) {
    std::fprintf(f,
                 ", \"platform\": \"%s\", \"algorithm\": \"%s\", "
                 "\"nbodies\": %d, \"nprocs\": %d",
                 run->platform.c_str(), run->algorithm.c_str(), run->nbodies,
                 run->nprocs);
  }
  std::fprintf(f, "}");
}

}  // namespace ptb::support
