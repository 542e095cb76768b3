#!/usr/bin/env bash
# Builds and runs the end-to-end benchmark; run.py documents the flags.
exec python3 "$(dirname "$0")/run.py" "$@"
