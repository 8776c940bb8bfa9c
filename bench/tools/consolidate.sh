# Fixture tool: joins three integer scores and writes a small report file.
# Usage: sh consolidate.sh ECONOMIC PERFORMANCE ECOLOGICAL
set -e
total=$(($1 + $2 + $3))
printf 'economic=%s performance=%s ecological=%s total=%s\n' \
    "$1" "$2" "$3" "$total" > outputs/report.txt
printf '{"total": %d, "report": "outputs/report.txt"}\n' "$total" > outputs.json
