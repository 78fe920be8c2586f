//! The cost-based planner: turns a partitioned pattern tree into a
//! [`QueryPlan`] using the synopsis persisted with the store (per-tag
//! posting counts, the path summary) and, for a `= "literal"` constraint,
//! a count of the literal's B+v postings at the pinned generation — cut off
//! where one more posting could no longer change the choice
//! (`XmlDb::literal_postings`).
//!
//! A query *shape* — its pattern with each `= "literal"` a numbered slot
//! ([`crate::pattern::PathExpr::shape`]) — is planned once
//! ([`crate::plan::Shape`]): partition, walks, each walk compiled for every
//! route its root can take, and the route costs without the literal
//! terms. Binding a query's literals ([`XmlDb::bind`]) re-runs only what
//! a literal moves: the bounded probe of its postings, the proof that one
//! has none, and the route comparison. [`XmlDb::plan_query`] is planning
//! a shape and binding its own literals: there is no other plan path.
//!
//! A query runs as one walk (`core::scan`). Its root — fragment 0, or the
//! one child of a bare document node — has two routes, and the planner
//! prices both in **nanoseconds** and takes the cheaper:
//!
//! * the **index route** — seed starting points from B+v or B+t postings,
//!   lift each to the pivot, verify the spine above it, and
//!   feed each start's subtree to the single-pass matcher (`core::scan`):
//!   a cost *per start*;
//! * the **scan route** — one single-pass match over the whole page chain
//!   (`core::scan`): a cost *per document node*, independent of how many
//!   nodes match.
//!
//! The unit costs below are measurements of this repository's own layers on
//! the reference host, not tuning knobs; each names the layer it prices.
//! The paper's §6.2 heuristic ("whenever there are value constraints, we
//! always use the value index"; tag index when selective) falls out for
//! selective queries — a handful of starts costs microseconds against a
//! pass of milliseconds — and result-heavy fragments take the pass.
//!
//! Every other fragment rides the walk root's walk and gets no route of its
//! own: it is priced on the scan route, as if it walked alone. A plan with a
//! `following::` cut edge needs what lies after a source, so its walk root
//! takes the scan route. A plan is proven empty when some root chain has
//! no support in the path summary, some `= "literal"` has no B+v posting
//! at all, or a `following::` edge leaves the document node. A tag seed
//! of a document-rooted fragment whose every posting the path summary
//! puts on the spine (its chain's support equals its tag count, and the
//! chain's states are exact) needs no spine check (EXPLAIN `spine=proven`).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

use nok_pager::Storage;

use crate::build::XmlDb;
use crate::dewey::Dewey;
use crate::error::{CoreError, CoreResult};
use crate::pattern::{NameTest, PathExpr};
use crate::pattern_tree::{CutKind, EdgeKind, PNodeId, Partition, PatternTree, DOC_NODE};
use crate::physical::PhysAccess;
use crate::plan::{
    Compiled, CompiledSets, FragmentPlan, PlannedQuery, QueryPlan, Routes, SeedChoice, Shape,
};
use crate::scan::{plan_walks, walk_root, NodeSet, NodeTests, ScanPattern};
use crate::synopsis::{ChainStates, PathAxis, PathStep, PathTrie};
use crate::values::{hash_key, LockDataFile};
use crate::{QueryOptions, StartStrategy};

// ---- Unit costs, in nanoseconds: measurements of this repository's own
// layers on the reference host (2 cores; dblp at scale 0.1 — 320k nodes,
// 4 KiB pages, 256-frame pools), not tuning knobs. `btree.*`, `values.*`
// and `cursor.*` are per-layer probes of `benchmark/`; DESIGN.md §12
// records the others' values and how each was taken.

/// One document node of the scan route's pass, whatever it matches
/// (11–13 ns; two entries per node; DESIGN.md §12).
const SCAN_NODE_NS: u64 = 12;
/// One hot-node candidate of the scan route — buffered with its Dewey id at
/// open, settled at close, handed to the collector (57–90 ns; DESIGN.md
/// §12).
const SCAN_HIT_NS: u64 = 75;
/// Reading one posting off a B+t/B+v leaf chain:
/// `btree.postings_ns_per_entry` (127–145 ns).
const POSTING_NS: u64 = 145;
/// One B+i point lookup with its leaf resident, which is what seeds arriving
/// in key order see (561–702 ns; DESIGN.md §12). A lookup that misses the
/// pool (`btree.get_ns`, 4–4.7 µs) is the sparse-seed case, where the index
/// route wins by orders of magnitude anyway.
const GET_NS: u64 = 600;
/// Reading a value record once B+i has located it — one positional read:
/// `values.fetch_ns` minus the `btree.get_ns` it includes (under 0.5 µs).
const FETCH_NS: u64 = 400;
/// One `FIRST-CHILD`/`FOLLOWING-SIBLING` step: `cursor.first_child_ns`,
/// `cursor.following_sibling_ns` (80–136 ns).
const NAV_NS: u64 = 120;
/// Matching from one starting point with pattern children to find, as
/// the index route on `//article[author][title]` does (DESIGN.md §12).
/// Set when the index route navigated each start with `match_at`
/// (1.9–2.3 µs over 17k starts); its sub-scans now measure 0.38–0.52 µs.
/// The constant stays until the routes are re-priced together, so plans
/// do not move (DESIGN.md §12).
const MATCH_NS: u64 = 2_000;

/// The root-chain trie states of every pattern node of one plan. A node's
/// states are its pattern parent's advanced by one step, so each distinct
/// chain is walked once per plan however many candidates ask about it.
struct Chains<'a> {
    trie: &'a PathTrie,
    /// Where each pattern node's root chain can end; empty = zero support,
    /// which is a proof of emptiness, not merely an estimate.
    states: Vec<ChainStates>,
    /// Nodes that can match each pattern node: the chain's support, which
    /// is exact unless the states are open, and then an upper bound held to
    /// the paper's per-tag count.
    support: Vec<u64>,
}

impl<'a> Chains<'a> {
    fn new<S: Storage>(db: &'a XmlDb<S>, tree: &PatternTree) -> Chains<'a> {
        let trie = db.synopsis().paths();
        let mut states: Vec<ChainStates> = Vec::with_capacity(tree.nodes.len());
        let mut support: Vec<u64> = Vec::with_capacity(tree.nodes.len());
        let start = PathTrie::start_states();
        states.push(start.clone());
        support.push(0);
        // Arena order: a pattern node's parent always precedes it.
        for (n, node) in tree.nodes.iter().enumerate().skip(1) {
            let parent = node.parent.unwrap_or(DOC_NODE);
            // A tag the document has never seen: no node matches.
            let tag = match &node.test {
                NameTest::Wildcard => Some(None),
                NameTest::Tag(name) => db.dict.lookup(name).map(Some),
            };
            let kind = tree.nodes[parent]
                .children
                .iter()
                .find(|&&(_, c)| c == n)
                .map_or(EdgeKind::Descendant, |&(k, _)| k);
            let (from, axis) = match kind {
                EdgeKind::Child => (&states[parent], PathAxis::Child),
                EdgeKind::Descendant => (&states[parent], PathAxis::Descendant),
                // Document order does not constrain the tag path: `//test`.
                EdgeKind::Following => (&start, PathAxis::Descendant),
            };
            let next = tag.map_or_else(ChainStates::default, |tag| {
                trie.advance(from, PathStep { axis, tag })
            });
            let cap = tag.flatten().map_or(db.node_count(), |t| db.tag_count(t));
            support.push(trie.support_of(&next).min(cap));
            states.push(next);
        }
        Chains {
            trie,
            states,
            support,
        }
    }

    /// Nodes at or below those that can match pattern node `n`.
    fn subtree_support(&self, n: PNodeId) -> u64 {
        self.trie.subtree_support_of(&self.states[n])
    }
}

/// An index-route candidate for one fragment.
struct IndexCand {
    cost: u64,
    starts: u64,
    /// Pattern node whose root chain bounds the seed's survivors.
    chain: PNodeId,
    seed: SeedChoice,
    pivot: PNodeId,
    /// Every posting of the seed tag lies on `chain` (module docs).
    on_spine: bool,
}

impl<S: Storage> XmlDb<S> {
    /// Plan a path expression: plan its shape and bind its literals.
    pub fn plan_query(&self, path: &str, opts: QueryOptions) -> CoreResult<PlannedQuery> {
        self.plan_expr(&PathExpr::parse(path)?, opts)
    }

    /// [`XmlDb::plan_query`] of a parsed path expression.
    pub fn plan_expr(&self, expr: &PathExpr, opts: QueryOptions) -> CoreResult<PlannedQuery> {
        self.plan_tree(PatternTree::from_path(expr)?, opts)
    }

    /// Plan the shape of a pattern tree and bind the tree's own literals.
    pub(crate) fn plan_tree(
        &self,
        tree: PatternTree,
        opts: QueryOptions,
    ) -> CoreResult<PlannedQuery> {
        let literals: Vec<String> = (0..tree.slots.len())
            .filter_map(|i| tree.slot_literal(i).map(str::to_string))
            .collect();
        let shape = Arc::new(self.plan_shape(tree, opts)?);
        self.bind_shape(shape, literals)
    }

    /// Bind `literals`, one per slot in text order
    /// ([`crate::pattern::PathExpr::literals`]), to the shape `template`
    /// was planned for: the plan `plan_query` gives the query of that
    /// shape with these literals. Planned at this generation, or the
    /// template's is stale (the serve layer's plan cache keys by both).
    pub fn bind<L: AsRef<str>>(
        &self,
        template: &PlannedQuery,
        literals: &[L],
    ) -> CoreResult<PlannedQuery> {
        let literals = literals.iter().map(|l| l.as_ref().to_string()).collect();
        self.bind_shape(Arc::clone(&template.shape), literals)
    }

    /// Plan a shape: partition, walks, costs without the literal terms,
    /// and every walk compiled for each route its root can take.
    fn plan_shape(&self, tree: PatternTree, opts: QueryOptions) -> CoreResult<Shape> {
        let part = tree.partition();
        let chains = Chains::new(self, &tree);
        let root = walk_root(&tree, &part);
        // What follows a source lies outside any seeded subtree, and a
        // rider is decided at every node of the walk: both take no seed.
        let following = (part.cut_edges.iter()).any(|c| c.kind == CutKind::Following);
        // Empty-by-synopsis proof: a conjunctive tree pattern can only
        // match if every pattern node's root chain has support in the
        // document. Nothing follows the document node either. (That every
        // literal it compares for equality occurs, binding proves.)
        let empty = chains.states.iter().any(ChainStates::is_empty)
            || (part.cut_edges.iter()).any(|c| c.kind == CutKind::Following && c.src == DOC_NODE);
        let mut routes = Vec::with_capacity(part.fragments.len());
        for f in 0..part.fragments.len() {
            let seeded = (f == root || f == 0) && !following;
            let strategy = if seeded {
                opts.strategy
            } else {
                StartStrategy::Scan
            };
            routes.push(self.fragment_routes(&tree, &part, f, strategy, &chains));
        }
        let walks = plan_walks(&tree, &part);
        let floors: Vec<Option<u16>> = routes.iter().map(|r| r.scan.root_floor).collect();
        let mut compiled = Vec::with_capacity(walks.len());
        for walk in &walks {
            let r = &routes[walk.frags[0]];
            // The pivots the walk root's index seeds start from.
            let mut pivots = vec![None];
            if r.strategy != StartStrategy::Scan && r.scan.seed != SeedChoice::DocNavigate {
                pivots.extend(r.tag.as_ref().map(|t| Some(t.pivot)));
                if !r.literals.is_empty() {
                    pivots.push(Some(r.scan.pivot));
                }
            }
            pivots.dedup();
            let mut routes = Vec::with_capacity(pivots.len());
            for seeded in pivots {
                let size: usize = (walk.frags.iter())
                    .map(|&f| part.fragments[f].members.len())
                    .sum();
                let sets = if size <= u64::CAPACITY {
                    let (pat, tests) = self.compile(&tree, &part, walk, seeded, &floors)?;
                    CompiledSets::Narrow(pat, tests)
                } else {
                    let (pat, tests) = self.compile(&tree, &part, walk, seeded, &floors)?;
                    CompiledSets::Wide(pat, tests)
                };
                let spine = match seeded {
                    Some(pivot) if r.scan.root == DOC_NODE => spine_above(&tree, pivot),
                    _ => Vec::new(),
                };
                routes.push(Compiled {
                    seeded,
                    spine,
                    sets,
                });
            }
            compiled.push(routes);
        }
        Ok(Shape {
            tree,
            part,
            walks,
            compiled,
            routes,
            empty,
        })
    }

    /// `walk` compiled for the route from `seeded`, and the name tests of
    /// its pattern per tag code of the dictionary.
    #[allow(clippy::type_complexity)]
    fn compile<B: NodeSet>(
        &self,
        tree: &PatternTree,
        part: &Partition,
        walk: &crate::scan::Walk,
        seeded: Option<PNodeId>,
        floors: &[Option<u16>],
    ) -> CoreResult<(Arc<ScanPattern<B>>, Vec<NodeTests<B>>)> {
        let pat = ScanPattern::<B>::compile(tree, part, walk, seeded, floors)?;
        let tests = self.node_tests(&pat);
        Ok((Arc::new(pat), tests))
    }

    /// The name tests of `pat` per tag code of the dictionary.
    pub(crate) fn node_tests<B: NodeSet>(&self, pat: &ScanPattern<B>) -> Vec<NodeTests<B>> {
        let mut tests = vec![NodeTests::default(); self.dict.len()];
        for (code, name) in self.dict.iter() {
            tests[code.0 as usize] = NodeTests::of(pat, name);
        }
        tests
    }

    /// Bind one literal per slot to `shape`: per fragment, probe each
    /// literal's postings as far as the choice can depend on them, prove
    /// the plan empty if one has none, and choose the route.
    fn bind_shape(&self, shape: Arc<Shape>, literals: Vec<String>) -> CoreResult<PlannedQuery> {
        if literals.len() != shape.tree.slots.len() {
            return Err(CoreError::PathSyntax {
                pos: 0,
                msg: format!(
                    "{} literals for a shape of {} slots",
                    literals.len(),
                    shape.tree.slots.len()
                ),
            });
        }
        let mut proven_empty = shape.empty;
        let mut fragments = Vec::with_capacity(shape.routes.len());
        let mut postings = vec![None; literals.len()];
        for r in &shape.routes {
            // Value seed: the most selective `= "literal"` constraint.
            // Survivors are additionally bounded by the pivot chain's path
            // support.
            let mut scan_cost = r.scan.est_cost;
            let mut value: Option<ValueSeed> = None;
            for &(slot, lift) in &r.literals {
                let mut read = Vec::new();
                let count = self.literal_postings(&literals[slot], r.bound, &mut read)?;
                // Read whole, the postings serve the executor too.
                postings[slot] = (count < probe_limit(r.bound)).then_some(read);
                proven_empty |= count == 0;
                scan_cost = scan_cost.saturating_add(count.saturating_mul(POSTING_NS));
                let starts = count.min(r.scan.path_support.unwrap_or(0));
                let per_start = r.per_start + u64::from(lift > 0) * GET_NS;
                let cost = count
                    .saturating_mul(POSTING_NS)
                    .saturating_add(starts.saturating_mul(per_start));
                if value.as_ref().is_none_or(|b| cost < b.cost) {
                    value = Some(ValueSeed {
                        cost,
                        starts,
                        slot,
                        lift,
                    });
                }
            }
            // The choice. A forced strategy takes its seed when the
            // fragment offers one; everything else is decided by price,
            // the value seed winning a tie.
            let tag = r.tag.as_ref();
            let (value_cost, tag_cost) = (value.as_ref().map(|v| v.cost), tag.map(|t| t.est_cost));
            let (value_wins, tag_wins) = match r.strategy {
                StartStrategy::Scan => (false, false),
                StartStrategy::ValueIndex if value.is_some() => (true, false),
                StartStrategy::TagIndex if tag.is_some() => (false, true),
                _ => (
                    value_cost.is_some_and(|v| v <= scan_cost && tag_cost.is_none_or(|t| v <= t)),
                    tag_cost.is_some_and(|t| t <= scan_cost && value_cost.is_none_or(|v| t < v)),
                ),
            };
            let fp = match (value, tag) {
                (Some(v), _) if value_wins => FragmentPlan {
                    seed: SeedChoice::ValueIndex {
                        literal: literals[v.slot].clone(),
                        lift: v.lift,
                    },
                    verify_spine: r.scan.root == DOC_NODE,
                    est_starts: v.starts,
                    est_cost: v.cost,
                    ..r.scan.clone()
                },
                (_, Some(t)) if tag_wins => t.clone(),
                _ if r.scan.seed == SeedChoice::Scan => FragmentPlan {
                    est_cost: scan_cost,
                    ..r.scan.clone()
                },
                _ => r.scan.clone(),
            };
            fragments.push(fp);
        }
        Ok(PlannedQuery {
            plan: QueryPlan {
                fragments,
                returning_fragment: shape.part.returning_fragment,
                proven_empty,
            },
            shape,
            literals,
            postings,
        })
    }

    /// The largest depth bound among the tags that pass `test`
    /// (`FragmentPlan::root_floor`); 0 when no node ever has.
    fn root_floor(&self, test: &NameTest) -> u16 {
        let synopsis = self.synopsis();
        self.dict
            .iter()
            .filter(|(_, name)| test.accepts(name))
            .map(|(code, _)| synopsis.depth_bound(code))
            .max()
            .unwrap_or(0)
    }

    /// The routes of fragment `f` without the literal terms: the cheapest
    /// tag seed and the scan route (module docs), both in nanoseconds (a
    /// rider is planned on the scan route, as if it walked alone), and the
    /// literals a value seed may take. Estimates come from root-chain
    /// support in the synopsis path summary (`chains`), and a
    /// document-rooted fragment may elevate its pivot onto a rarer spine
    /// ancestor when probing that tag plus navigating its matched subtrees
    /// is estimated cheaper than lift-and-verify over the postings of the
    /// best member tag.
    fn fragment_routes(
        &self,
        tree: &PatternTree,
        part: &Partition,
        f: usize,
        strategy: StartStrategy,
        chains: &Chains<'_>,
    ) -> Routes {
        let root = part.fragments[f].root;
        let pivot = if root == DOC_NODE {
            doc_pivot(tree, part)
        } else {
            root
        };
        let node_count = self.node_count();
        if pivot == DOC_NODE {
            // Nothing to locate. Almost always nothing to match either
            // (`//…` leaves the document node alone in fragment 0).
            let local = tree.local_children(DOC_NODE).count() as u64;
            let scan = FragmentPlan {
                frag: f,
                root,
                pivot,
                seed: SeedChoice::DocNavigate,
                verify_spine: false,
                est_starts: 1,
                est_cost: local.saturating_mul(node_count).saturating_mul(NAV_NS),
                path_support: None,
                path_support_open: false,
                root_floor: None,
            };
            return Routes {
                scan,
                tag: None,
                literals: Vec::new(),
                per_start: 0,
                bound: 0,
                strategy,
            };
        }
        let root_floor = (root != DOC_NODE).then(|| self.root_floor(&tree.nodes[root].test));
        // A plan seeded on `seed` from `pivot`, its survivors bounded by the
        // root chain of pattern node `chain`.
        let plan =
            |seed, pivot, chain: PNodeId, est_starts, est_cost, on_spine: bool| FragmentPlan {
                frag: f,
                root,
                pivot,
                verify_spine: root == DOC_NODE && seed != SeedChoice::Scan && !on_spine,
                seed,
                est_starts,
                est_cost,
                path_support: Some(chains.support[chain]),
                path_support_open: chains.states[chain].is_open(),
                root_floor,
            };
        let depths = pivot_depths(tree, pivot);
        let tag_count = |n: PNodeId| match &tree.nodes[n].test {
            NameTest::Tag(name) => self.dict.lookup(name).map_or(0, |c| self.tag_count(c)),
            NameTest::Wildcard => node_count,
        };
        // Nodes that can match pattern node `n`: its root chain's support.
        let support = |n: PNodeId| chains.support[n];
        // Every posting of `n`'s tag lies on its root chain: the chain's
        // support is the tag's count, and exact.
        let on_spine = |n: PNodeId| {
            root == DOC_NODE && support(n) == tag_count(n) && !chains.states[n].is_open()
        };
        let spine_gets = if root == DOC_NODE {
            spine_above(tree, pivot).len() as u64
        } else {
            0
        };
        // Index route, per start: lift to the pivot, verify the spine above
        // it, match (a pivot without pattern children has nothing below it
        // to navigate: one tag test).
        let match_ns = match tree.local_children(pivot).next() {
            Some(_) => MATCH_NS,
            None => NAV_NS,
        };
        let per_start = |lift: u32| (u64::from(lift > 0) + spine_gets) * GET_NS + match_ns;

        // ---- Index route, tag seeds.
        let mut tag: Option<IndexCand> = None;
        let mut consider = |c: IndexCand| {
            if tag.as_ref().is_none_or(|b| c.cost < b.cost) {
                tag = Some(c);
            }
        };
        // Member candidates: the `/`-connected members below the pivot,
        // seeded by lifting their tag postings. Every posting is read; only
        // those on the member's root chain survive to be lifted and matched.
        for (&n, &d) in &depths {
            if let NameTest::Tag(name) = &tree.nodes[n].test {
                let count = tag_count(n);
                let starts = support(n);
                consider(IndexCand {
                    cost: count
                        .saturating_mul(POSTING_NS)
                        .saturating_add(starts.saturating_mul(per_start(d))),
                    starts,
                    chain: n,
                    seed: SeedChoice::TagIndex {
                        name: name.clone(),
                        lift: d,
                    },
                    pivot,
                    on_spine: on_spine(n),
                });
            }
        }
        // Elevated-pivot candidates (document-rooted): spine ancestors of
        // the pivot. Seeding from a rare ancestor costs its postings and
        // their spine checks plus navigation bounded by the total size of
        // the subtrees its chain matches — which only the path summary can
        // estimate.
        if root == DOC_NODE {
            let mut cur = tree.nodes[pivot].parent;
            while let Some(s) = cur.filter(|&s| s != DOC_NODE) {
                if let NameTest::Tag(name) = &tree.nodes[s].test {
                    let count = tag_count(s);
                    let starts = support(s);
                    let spine = spine_above(tree, s).len() as u64;
                    consider(IndexCand {
                        cost: count
                            .saturating_mul(POSTING_NS)
                            .saturating_add(starts.saturating_mul(spine * GET_NS))
                            .saturating_add(chains.subtree_support(s).saturating_mul(NAV_NS)),
                        starts,
                        chain: s,
                        seed: SeedChoice::TagIndex {
                            name: name.clone(),
                            lift: 0,
                        },
                        pivot: s,
                        on_spine: on_spine(s),
                    });
                }
                cur = tree.nodes[s].parent;
            }
        }

        // ---- Scan route: one pass, the hot-node candidates it buffers, and
        // what its value constraints read — a fetch for every structurally
        // matching node, except that `= "literal"` is merged against the
        // literal's postings. Both routes read those, so a literal's count
        // matters only while its postings cost less than the cheapest route
        // that reads none of them: the best tag seed, else the pass alone.
        // Binding adds the literals' terms.
        let hot = part.hot.get(&f).filter(|h| depths.contains_key(h));
        let mut scan_cost = node_count
            .saturating_mul(SCAN_NODE_NS)
            .saturating_add(hot.map_or(0, |&h| support(h)).saturating_mul(SCAN_HIT_NS));
        let mut literals = Vec::new();
        for (&n, &d) in &depths {
            for i in 0..tree.nodes[n].value_cmps.len() {
                match tree.slots.iter().position(|&s| s == (n, i)) {
                    Some(slot) => literals.push((slot, d)),
                    None => {
                        scan_cost =
                            scan_cost.saturating_add(support(n).saturating_mul(GET_NS + FETCH_NS));
                    }
                }
            }
        }
        let bound = tag.as_ref().map_or(scan_cost, |t| t.cost);
        let scan = plan(
            SeedChoice::Scan,
            pivot,
            pivot,
            support(pivot),
            scan_cost,
            false,
        );
        Routes {
            tag: tag.map(|c| plan(c.seed, c.pivot, c.chain, c.starts, c.cost, c.on_spine)),
            scan,
            literals,
            per_start: per_start(0),
            bound,
            strategy,
        }
    }

    /// How many postings B+v holds under `literal`'s hash, counted only as
    /// far as the choice of route can depend on it: every route through the
    /// literal reads each of them ([`POSTING_NS`]) and then spends at least
    /// [`NAV_NS`] on each that survives, so once the cheaper of the two
    /// times the count exceeds `bound_ns` — what the cheapest route that
    /// reads none of them costs — "at least that many" decides exactly as
    /// the full count would. A unique key costs one descent, and the count
    /// is exact at 0 whatever the bound (a plan-time proof of emptiness).
    /// The postings read are appended to `read`.
    fn literal_postings(
        &self,
        literal: &str,
        bound_ns: u64,
        read: &mut Vec<Vec<u8>>,
    ) -> CoreResult<u64> {
        let limit = probe_limit(bound_ns);
        let key = hash_key(literal);
        let mut count = 0u64;
        let postings = self
            .bt_val
            .range(Bound::Included(&key[..]), Bound::Included(&key[..]))?;
        for posting in postings.take(usize::try_from(limit).unwrap_or(usize::MAX)) {
            read.push(posting?.1);
            count += 1;
        }
        Ok(count)
    }

    /// Of `postings`, the postings B+v holds under `literal`'s hash, those
    /// whose value is `literal`, in document order: each is verified
    /// against the stored text (hash-collision safety) unless the data
    /// file vouches that the hash identifies the literal.
    pub(crate) fn verified_postings<'a>(
        &self,
        literal: &str,
        mut postings: Cow<'a, [Vec<u8>]>,
    ) -> CoreResult<Cow<'a, [Vec<u8>]>> {
        let vouched = self.data.lock_data().hash_identifies(literal)?;
        if !vouched {
            let access = PhysAccess::new(&self.store, &self.dict, &self.bt_id, &self.data);
            let mut verified = Vec::with_capacity(postings.len());
            for p in postings.iter() {
                if let Some(dewey) = Dewey::from_key(p) {
                    if access.value_equals(&dewey, literal)? {
                        verified.push(p.clone());
                    }
                }
            }
            postings = Cow::Owned(verified);
        }
        // Postings of one hash sit in insertion order, which updates take
        // out of document order.
        if !postings.is_sorted() {
            postings.to_mut().sort_unstable();
        }
        Ok(postings)
    }
}

/// How many postings [`XmlDb::literal_postings`] reads at most under
/// `bound_ns`.
fn probe_limit(bound_ns: u64) -> u64 {
    let limit = bound_ns / POSTING_NS.min(NAV_NS) + 1;
    #[cfg(test)]
    let limit = limit.max(tests::MIN_LIMIT.get());
    limit
}

/// A fragment's cheapest value seed while binding: its cost and starts,
/// and the slot and lift of its literal.
struct ValueSeed {
    cost: u64,
    starts: u64,
    slot: usize,
    lift: u32,
}

/// Descend from the virtual document node through the *bare* spine prefix:
/// nodes with no value constraints and exactly one local (`/`) child. The
/// node where the walk stops is the pivot for index-based starting-point
/// location. Never descends past the fragment's hot node (the matcher must
/// still collect it).
pub(crate) fn doc_pivot(tree: &PatternTree, part: &Partition) -> PNodeId {
    let hot = part.hot.get(&0).copied().unwrap_or(DOC_NODE);
    let mut cur = DOC_NODE;
    loop {
        if cur == hot {
            return cur;
        }
        let n = &tree.nodes[cur];
        if cur != DOC_NODE && !n.value_cmps.is_empty() {
            return cur;
        }
        let mut it = n.children.iter();
        match (it.next(), it.next()) {
            (Some(&(EdgeKind::Child, c)), None) => cur = c,
            _ => return cur,
        }
    }
}

/// The name tests of the spine nodes strictly between the document node and
/// `pivot`, outermost first (levels `1..pivot_depth-1`).
pub(crate) fn spine_above(tree: &PatternTree, pivot: PNodeId) -> Vec<NameTest> {
    let mut chain = Vec::new();
    let mut cur = tree.nodes[pivot].parent;
    while let Some(n) = cur {
        if n == DOC_NODE {
            break;
        }
        chain.push(tree.nodes[n].test.clone());
        cur = tree.nodes[n].parent;
    }
    chain.reverse();
    chain
}

/// Fixed `/`-chain depth of each fragment member below `pivot`, in pattern
/// node order (so that ties between equal costs break the same way every
/// time).
pub(crate) fn pivot_depths(tree: &PatternTree, pivot: PNodeId) -> BTreeMap<PNodeId, u32> {
    let mut depth: BTreeMap<PNodeId, u32> = BTreeMap::new();
    depth.insert(pivot, 0);
    let mut frontier = vec![pivot];
    while let Some(n) = frontier.pop() {
        for c in tree.local_children(n) {
            depth.insert(c, depth[&n] + 1);
            frontier.push(c);
        }
    }
    depth
}

#[cfg(test)]
mod tests {
    use super::*;

    const BIB: &str = r#"<bib>
      <book><title>A</title><author><last>Stevens</last></author></book>
      <book><title>B</title><author><last>Suciu</last></author></book>
    </bib>"#;

    /// BIB with enough other books that one index start is cheaper than a
    /// pass over the document (a few starts beat a scan only once the
    /// document outweighs them: ~75 nodes per start at these unit costs).
    fn big_bib() -> String {
        let filler = "<book><title>C</title><author><last>Other</last></author></book>";
        BIB.replace("</bib>", &format!("{}</bib>", filler.repeat(50)))
    }

    fn plan(db: &XmlDb<nok_pager::MemStorage>, q: &str) -> PlannedQuery {
        db.plan_query(q, QueryOptions::default()).unwrap()
    }

    #[test]
    fn value_constraint_selects_value_index() {
        let db = XmlDb::build_in_memory(&big_bib()).unwrap();
        let p = plan(&db, r#"//book[author/last="Stevens"]"#);
        let frag = p
            .plan
            .fragments
            .iter()
            .find(|fp| matches!(fp.seed, SeedChoice::ValueIndex { .. }))
            .expect("one fragment seeds from the value index");
        assert!(frag.verify_spine || frag.root != DOC_NODE);
    }

    #[test]
    fn value_estimates_come_from_stats() {
        let db = XmlDb::build_in_memory(&big_bib()).unwrap();
        let p = plan(&db, r#"//book[author/last="Stevens"]"#);
        let frag = p
            .plan
            .fragments
            .iter()
            .find(|fp| matches!(fp.seed, SeedChoice::ValueIndex { .. }))
            .unwrap();
        assert_eq!(frag.est_starts, 1, "exactly one last=Stevens node");
        // One posting read, one lift to the book, one match.
        assert_eq!(frag.est_cost, POSTING_NS + GET_NS + MATCH_NS);
    }

    thread_local! {
        /// Raised to `u64::MAX`, makes `literal_postings` count every
        /// posting: the reference the capped count is held against.
        pub(super) static MIN_LIMIT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// Counting a literal's postings only as far as the choice can depend
    /// on them picks the routes the full count picks, from a needle that
    /// occurs once to one that occurs ten thousand times, whether the cap
    /// bites or not — on a pinned snapshot, whose postings a writer's
    /// commits do not move.
    #[test]
    fn capped_literal_counts_choose_as_full_counts_do() {
        const FREQS: [u64; 4] = [1, 100, 1_000, 10_000];
        let mut xml = String::from("<r><rare><v>n1</v><v>n100</v><v>n1000</v><v>n10000</v></rare>");
        for f in FREQS {
            xml.push_str(&format!("<e><v>n{f}</v></e>").repeat(f as usize - 1));
        }
        xml.push_str("</r>");
        let mut db = XmlDb::build_in_memory(&xml).unwrap();
        let pinned = db.snapshot_source().snapshot().unwrap();
        let seeds = |full: bool, q: &str| -> Vec<(SeedChoice, u64, u64)> {
            MIN_LIMIT.set(if full { u64::MAX } else { 0 });
            let planned = pinned.plan_query(q, QueryOptions::default());
            MIN_LIMIT.set(0);
            let frags = planned.unwrap().plan.fragments;
            frags
                .into_iter()
                .map(|fp| (fp.seed, fp.est_starts, fp.est_cost))
                .collect()
        };
        let mut routes = Vec::new();
        for f in FREQS {
            // A dear tag seed, a cheap one, and none at all.
            for shape in ["//e[v=\"n{}\"]", "//rare[v=\"n{}\"]", "//*[*=\"n{}\"]/v"] {
                let q = shape.replace("{}", &f.to_string());
                let (capped, full) = (seeds(false, &q), seeds(true, &q));
                let choice = |s: &[(SeedChoice, u64, u64)]| -> Vec<SeedChoice> {
                    s.iter().map(|(seed, ..)| seed.clone()).collect()
                };
                assert_eq!(choice(&capped), choice(&full), "{q}");
                // A count the cap did not cut leaves the estimates alone too.
                let lit = format!("n{f}");
                if pinned.literal_postings(&lit, 0, &mut Vec::new()).unwrap() == f {
                    assert_eq!(capped, full, "{q}");
                }
                routes.push(capped[capped.len() - 1].0.to_string());
            }
            // The writer moves the live count of every needle …
            let more = format!("<e><v>n{f}</v></e>");
            db.insert_last_child(&Dewey::root(), &more).unwrap();
            assert_eq!(
                db.literal_postings(&format!("n{f}"), u64::MAX, &mut Vec::new())
                    .unwrap(),
                f + 1
            );
            // … the pinned generation keeps its own, cut where asked.
            assert_eq!(
                pinned
                    .literal_postings("n10000", u64::MAX, &mut Vec::new())
                    .unwrap(),
                10_000
            );
            assert_eq!(
                pinned
                    .literal_postings("n10000", 1_000 * NAV_NS, &mut Vec::new())
                    .unwrap(),
                1_001
            );
        }
        // Both decisions occur, capped and uncapped.
        assert_eq!(
            routes,
            [
                "value-index(\"n1\", lift 1)",
                "tag-index(rare, lift 0)",
                "value-index(\"n1\", lift 1)",
                "value-index(\"n100\", lift 1)",
                "tag-index(rare, lift 0)",
                "value-index(\"n100\", lift 1)",
                "scan",
                "tag-index(rare, lift 0)",
                "scan",
                "scan",
                "tag-index(rare, lift 0)",
                "scan",
            ]
        );
    }

    #[test]
    fn unselective_tag_falls_back_to_scan() {
        // Every node shares one tag: tag route is never selective enough.
        let xml = "<r><r><r/></r><r/><r><r/><r/></r></r>";
        let db = XmlDb::build_in_memory(xml).unwrap();
        let p = db
            .plan_query("//r[r]", QueryOptions::default())
            .unwrap()
            .plan;
        assert!(p
            .fragments
            .iter()
            .any(|fp| matches!(fp.seed, SeedChoice::Scan)
                && fp.est_cost == db.node_count() * (SCAN_NODE_NS + SCAN_HIT_NS)));
    }

    #[test]
    fn strategy_override_forces_seed() {
        let db = XmlDb::build_in_memory(BIB).unwrap();
        let p = db
            .plan_query(
                r#"//book[author/last="Stevens"]"#,
                QueryOptions {
                    strategy: StartStrategy::TagIndex,
                },
            )
            .unwrap();
        assert!(p
            .plan
            .fragments
            .iter()
            .all(|fp| !matches!(fp.seed, SeedChoice::ValueIndex { .. })));
    }
}
