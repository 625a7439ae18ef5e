//! The `pscc-server` daemon: serve reachability over TCP.
//!
//! ```text
//! pscc-server [--listen ADDR] [--name NAME]
//!             [--data-dir DIR | --graph FILE | --rmat-scale S --rmat-edges M]
//!             [--queue-cap N] [--flight-dir DIR]
//! ```
//!
//! Graph source, first match wins: `--data-dir` recovers a persisted
//! catalog (serving every graph it holds); `--graph` loads a
//! whitespace `u v` edge list registered under `--name`; otherwise an
//! RMAT graph is generated (defaults: scale 15, 200 000 edges). The
//! process serves until killed; state changes arrive via
//! `POST /delta/<graph>` and are WAL-logged when the catalog is durable.

use pscc_engine::Catalog;
use pscc_server::args::Args;
use pscc_server::{start, CoalesceConfig, ServerConfig};
use std::sync::Arc;

fn main() {
    match run() {
        Ok(()) => {}
        Err(err) => {
            eprintln!("pscc-server: {err}");
            std::process::exit(2);
        }
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = Args::from_env();
    let listen = args.value("--listen")?.unwrap_or_else(|| "127.0.0.1:7411".to_string());
    let name = args.value("--name")?.unwrap_or_else(|| "serve".to_string());
    let data_dir = args.path("--data-dir")?;
    let graph_file = args.value("--graph")?;
    let rmat_scale = args.parsed::<u32>("--rmat-scale", "a log2 vertex count")?.unwrap_or(15);
    let rmat_edges = args.parsed::<usize>("--rmat-edges", "an edge count")?.unwrap_or(200_000);
    let queue_cap = args.parsed::<usize>("--queue-cap", "a query count")?;
    let flight_dir = args.path("--flight-dir")?;
    let rest = args.finish();
    if !rest.is_empty() {
        return Err(format!("unexpected arguments: {rest:?}").into());
    }

    if let Some(dir) = &flight_dir {
        std::fs::create_dir_all(dir)?;
        Catalog::enable_flight_recorder(dir)?;
        println!("flight recorder on: journaling to {}", dir.display());
    }

    let catalog = match (&data_dir, &graph_file) {
        (Some(dir), _) => {
            let catalog = Catalog::open(dir)?;
            println!("recovered catalog {:?} from {}", catalog.names(), dir.display());
            catalog
        }
        (None, Some(path)) => {
            let g = pscc_graph::io::read_edge_list(path)?;
            println!("loaded {path}: n={} m={} as {name:?}", g.n(), g.m());
            let catalog = Catalog::new();
            catalog.insert(&name, g);
            catalog
        }
        (None, None) => {
            let g = pscc_graph::generators::rmat::rmat_digraph(rmat_scale, rmat_edges, 0xa11ce);
            println!("generated RMAT: n={} m={} as {name:?}", g.n(), g.m());
            let catalog = Catalog::new();
            catalog.insert(&name, g);
            catalog
        }
    };

    let mut coalesce = CoalesceConfig::default();
    if let Some(cap) = queue_cap {
        coalesce.queue_cap = cap;
    }
    let config = ServerConfig { listen, coalesce, ..ServerConfig::default() };
    let handle = start(Arc::new(catalog), config)?;
    println!("listening on {} (queue_cap {})", handle.local_addr(), coalesce.queue_cap);

    // Serve until killed; the OS reclaims everything on exit.
    loop {
        std::thread::park();
    }
}
