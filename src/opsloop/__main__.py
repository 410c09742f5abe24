"""`python3 -m opsloop`: the command-line front end, as `opsloop`."""
from .cli import main

raise SystemExit(main())
