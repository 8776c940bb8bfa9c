# Fixture tool: writes a payload that differs on every run.
# Usage: sh sim.sh BASE TAG  (run inside a toolgrid working directory)
# The payload is one "run TAG" line followed by the bytes of BASE.
set -e
printf 'run %s\n' "$2" > outputs/data.txt
cat "$1" >> outputs/data.txt
printf '{"data": "outputs/data.txt"}\n' > outputs.json
