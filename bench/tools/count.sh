# Fixture tool: scores a file input with one wc count.
# Usage: sh count.sh -c|-l|-w FILE  (run inside a toolgrid working directory)
set -e
n=$(wc "$1" < "$2")
printf '{"score": %d}\n' "$n" > outputs.json
