# Writes OUT, a header defining PTB_GIT_SHA as the short HEAD of the checkout
# at SRC ("unknown" outside a git work tree). The ptb_git_sha target runs
# this on every build; OUT is rewritten only when the SHA changed, so only a
# new commit recompiles what includes it.
execute_process(
  COMMAND git rev-parse --short HEAD
  WORKING_DIRECTORY ${SRC}
  OUTPUT_VARIABLE sha
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET)
if(NOT sha)
  set(sha "unknown")
endif()
set(text "#define PTB_GIT_SHA \"${sha}\"\n")
set(old "")
if(EXISTS ${OUT})
  file(READ ${OUT} old)
endif()
if(NOT old STREQUAL text)
  file(WRITE ${OUT} "${text}")
endif()
