# Fixture tool: copies a file input with every newline removed.
# Usage: sh strip.sh FILE  (run inside a toolgrid working directory)
set -e
tr -d '\n' < "$1" > outputs/out.txt
printf '{"out": "outputs/out.txt"}\n' > outputs.json
