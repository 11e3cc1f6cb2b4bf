"""Fail unless every line of each .jsonl file, and each .json file, parses as JSON.

Usage: python3 .github/scripts/parse_json_artifacts.py FILE...
"""
import json
import sys

for path in sys.argv[1:]:
    with open(path) as f:
        text = f.read()
    values = text.splitlines() if path.endswith(".jsonl") else [text]
    if not values:
        sys.exit(f"{path}: empty artifact")
    for n, value in enumerate(values, 1):
        try:
            json.loads(value)
        except ValueError as err:
            sys.exit(f"{path}:{n}: {err}")
    print(f"{path}: {len(values)} JSON value(s) parse")
