from bench.cli import main

raise SystemExit(main())
