#!/usr/bin/env bash
# Run a name-filtered `cargo test` for CI: `ci/ran.sh cargo test … <filter>`.
#
# A filter that matches nothing passes silently, so the step must fail
# unless cargo exited 0 *and* at least one test binary ran a test.
# `pipefail` keeps cargo's status (a filtered run spans several
# binaries: a green one must not mask a later red one); `grep` reads to
# end of input rather than `-q`, so `tee` never takes a SIGPIPE.
set -o pipefail
"$@" 2>&1 | tee /dev/stderr | grep 'test result: ok. [1-9]' > /dev/null
