//===-- bench/suite/programs.cpp - The evaluation workloads ---------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "suite/programs.h"

using namespace rjit::suite;

namespace {

//===----------------------------------------------------------------------===//
// Ř main suite (Fig. 6). Ports of the benchmark-game programs the Ř suite
// uses, in the mini-R subset, with CI-sized defaults.
//===----------------------------------------------------------------------===//

const Program MainSuite[] = {
    {"binarytrees",
     R"(
bt_make <- function(d) {
  if (d == 0L) list(1L)
  else list(bt_make(d - 1L), bt_make(d - 1L), 1L)
}
bt_check <- function(t) {
  if (length(t) == 1L) 1L
  else 1L + bt_check(t[[1]]) + bt_check(t[[2]])
}
bt_run <- function(depth) {
  total <- 0L
  for (k in 1:3) {
    t <- bt_make(depth)
    total <- total + bt_check(t)
  }
  total
}
)",
     "bt_run(8L)"},

    {"Bounce_nonames",
     R"(
bounce_run <- function(nballs, steps) {
  set.seed(74L)
  x <- runif(nballs) * 500
  y <- runif(nballs) * 500
  vx <- runif(nballs) * 6 - 3
  vy <- runif(nballs) * 6 - 3
  bounces <- 0L
  for (s in 1:steps) {
    for (b in 1:nballs) {
      nx <- x[[b]] + vx[[b]]
      ny <- y[[b]] + vy[[b]]
      if (nx < 0 || nx > 500) {
        vx[[b]] <- -vx[[b]]
        bounces <- bounces + 1L
      }
      if (ny < 0 || ny > 500) {
        vy[[b]] <- -vy[[b]]
        bounces <- bounces + 1L
      }
      x[[b]] <- x[[b]] + vx[[b]]
      y[[b]] <- y[[b]] + vy[[b]]
    }
  }
  bounces
}
)",
     "bounce_run(60L, 60L)"},

    {"convolution",
     R"(
conv_run <- function(n, m) {
  a <- as.numeric(1:n) / n
  b <- as.numeric(1:m) / m
  out <- numeric(n + m - 1L)
  for (i in 1:n) {
    ai <- a[[i]]
    for (j in 1:m) {
      k <- i + j - 1L
      out[[k]] <- out[[k]] + ai * b[[j]]
    }
  }
  floor(sum(out) * 1000)
}
)",
     "conv_run(220L, 220L)"},

    {"fannkuchredux",
     R"(
fannkuch <- function(n) {
  perm1 <- 1:n
  count <- integer(n)
  maxflips <- 0L
  checksum <- 0L
  r <- n
  sign <- 1L
  repeat {
    if (perm1[[1]] != 1L) {
      perm <- perm1
      flips <- 0L
      repeat {
        k <- perm[[1]]
        if (k == 1L) break
        i <- 1L
        j <- k
        while (i < j) {
          tmp <- perm[[i]]
          perm[[i]] <- perm[[j]]
          perm[[j]] <- tmp
          i <- i + 1L
          j <- j - 1L
        }
        flips <- flips + 1L
      }
      if (flips > maxflips) maxflips <- flips
      checksum <- checksum + sign * flips
    }
    sign <- -sign
    # Next permutation in the fannkuch ordering.
    r <- 2L
    done <- FALSE
    while (r <= n) {
      if (count[[r]] < r - 1L) break
      count[[r]] <- 0L
      r <- r + 1L
    }
    if (r > n) {
      done <- TRUE
    } else {
      count[[r]] <- count[[r]] + 1L
      first <- perm1[[1]]
      i <- 1L
      while (i < r) {
        perm1[[i]] <- perm1[[i + 1L]]
        i <- i + 1L
      }
      perm1[[r]] <- first
    }
    if (done) break
  }
  checksum + maxflips
}
)",
     "fannkuch(7L)"},

    {"fasta_naive_2",
     R"(
fasta_run <- function(n) {
  set.seed(42L)
  probs <- c(0.27, 0.12, 0.12, 0.27, 0.08, 0.08, 0.06)
  cum <- numeric(length(probs))
  acc <- 0
  for (i in 1:length(probs)) {
    acc <- acc + probs[[i]]
    cum[[i]] <- acc
  }
  checksum <- 0L
  for (k in 1:n) {
    r <- runif(1L)
    code <- 1L
    for (i in 1:length(cum)) {
      if (r < cum[[i]]) {
        code <- i
        break
      }
    }
    checksum <- checksum + code
  }
  checksum
}
)",
     "fasta_run(12000L)"},

    {"fastaredux",
     R"(
fastaredux_run <- function(n) {
  set.seed(42L)
  probs <- c(0.27, 0.12, 0.12, 0.27, 0.08, 0.08, 0.06)
  lookup <- integer(64L)
  acc <- 0
  j <- 1L
  for (i in 1:64) {
    while (j < length(probs) && acc + probs[[j]] < i / 64) {
      acc <- acc + probs[[j]]
      j <- j + 1L
    }
    lookup[[i]] <- j
  }
  checksum <- 0L
  for (k in 1:n) {
    r <- runif(1L)
    slot <- as.integer(r * 64) + 1L
    checksum <- checksum + lookup[[slot]]
  }
  checksum
}
)",
     "fastaredux_run(20000L)"},

    {"flexclust",
     R"(
kmeans_assign <- function(px, py, cx, cy) {
  n <- length(px)
  k <- length(cx)
  total <- 0
  for (i in 1:n) {
    best <- 1L
    bestd <- 1e30
    for (c in 1:k) {
      dx <- px[[i]] - cx[[c]]
      dy <- py[[i]] - cy[[c]]
      d <- dx * dx + dy * dy
      if (d < bestd) {
        bestd <- d
        best <- c
      }
    }
    total <- total + best
  }
  total
}
flexclust_run <- function(n, k, iters) {
  set.seed(11L)
  px <- runif(n) * 10
  py <- runif(n) * 10
  cx <- runif(k) * 10
  cy <- runif(k) * 10
  s <- 0
  for (it in 1:iters) s <- s + kmeans_assign(px, py, cx, cy)
  s
}
)",
     "flexclust_run(250L, 8L, 8L)"},

    {"knucleotide",
     R"(
knucleotide_run <- function(n) {
  set.seed(7L)
  seqv <- integer(n)
  for (i in 1:n) seqv[[i]] <- as.integer(runif(1L) * 4)
  counts <- integer(256L)
  key <- 0L
  for (i in 1:n) {
    key <- (key * 4L + seqv[[i]]) %% 256L
    if (i >= 4L) {
      slot <- key + 1L
      counts[[slot]] <- counts[[slot]] + 1L
    }
  }
  best <- 0L
  for (i in 1:256) if (counts[[i]] > best) best <- counts[[i]]
  best + sum(counts)
}
)",
     "knucleotide_run(30000L)"},

    {"Mandelbrot",
     R"(
mandelbrot_run <- function(size, maxiter) {
  count <- 0L
  for (yi in 1:size) {
    ci <- 2 * yi / size - 1
    for (xi in 1:size) {
      cr <- 2 * xi / size - 1.5
      c <- cr + ci * 1i
      z <- 0 + 0i
      inside <- TRUE
      for (it in 1:maxiter) {
        z <- z * z + c
        if (Mod(z) > 2) {
          inside <- FALSE
          break
        }
      }
      if (inside) count <- count + 1L
    }
  }
  count
}
)",
     "mandelbrot_run(36L, 40L)"},

    {"nbody",
     R"(
nbody_run <- function(steps) {
  x <- c(0, 4.84, 8.34, 12.89, 15.37)
  y <- c(0, -1.16, 4.12, -15.11, -25.91)
  vx <- c(0, 0.0016, -0.0027, 0.0029, 0.0016)
  vy <- c(0, 0.0077, 0.0049, 0.0024, 0.0015)
  mass <- c(39.47, 0.038, 0.011, 0.000044, 0.0000052)
  n <- length(x)
  dt <- 0.01
  for (s in 1:steps) {
    for (i in 1:n) {
      ax <- 0
      ay <- 0
      for (j in 1:n) {
        if (i != j) {
          dx <- x[[j]] - x[[i]]
          dy <- y[[j]] - y[[i]]
          d2 <- dx * dx + dy * dy + 0.01
          inv <- mass[[j]] / (d2 * sqrt(d2))
          ax <- ax + dx * inv
          ay <- ay + dy * inv
        }
      }
      vx[[i]] <- vx[[i]] + ax * dt
      vy[[i]] <- vy[[i]] + ay * dt
    }
    for (i in 1:n) {
      x[[i]] <- x[[i]] + vx[[i]] * dt
      y[[i]] <- y[[i]] + vy[[i]] * dt
    }
  }
  floor((sum(x) + sum(y)) * 1000)
}
)",
     "nbody_run(800L)"},

    {"pidigits",
     R"(
# Fixed-precision long division standing in for the GMP bignums of the
# original (see DESIGN.md): digits of p/q in base 10, chunked remainders.
pidigits_run <- function(ndigits) {
  p <- 355L
  q <- 113L
  rem <- p %% q
  digitsum <- p %/% q
  for (k in 1:ndigits) {
    rem <- rem * 10L
    d <- rem %/% q
    rem <- rem %% q
    digitsum <- digitsum + d
    if (rem == 0L) rem <- (k * 7L + 1L) %% q
  }
  digitsum
}
)",
     "pidigits_run(40000L)"},

    {"regexdna",
     R"(
# Explicit pattern counting standing in for the regex engine (DESIGN.md).
regexdna_run <- function(n) {
  set.seed(19L)
  seqv <- integer(n)
  for (i in 1:n) seqv[[i]] <- as.integer(runif(1L) * 4)
  pats <- list(c(0L, 1L, 2L), c(3L, 3L, 0L, 1L), c(2L, 0L, 2L, 0L, 2L))
  total <- 0L
  for (p in 1:length(pats)) {
    pat <- pats[[p]]
    m <- length(pat)
    limit <- n - m + 1L
    for (i in 1:limit) {
      hit <- TRUE
      for (j in 1:m) {
        if (seqv[[i + j - 1L]] != pat[[j]]) {
          hit <- FALSE
          break
        }
      }
      if (hit) total <- total + 1L
    }
  }
  total
}
)",
     "regexdna_run(12000L)"},

    {"reversecomplement_naive",
     R"(
revcomp_run <- function(n) {
  set.seed(5L)
  seqv <- integer(n)
  for (i in 1:n) seqv[[i]] <- as.integer(runif(1L) * 4)
  comp <- integer(n)
  for (i in 1:n) comp[[i]] <- 3L - seqv[[n - i + 1L]]
  checksum <- 0L
  for (i in 1:n) checksum <- checksum + comp[[i]] * (i %% 7L)
  checksum
}
)",
     "revcomp_run(30000L)"},

    {"spectralnorm_math",
     R"(
sn_a <- function(i, j) 1 / ((i + j) * (i + j + 1) / 2 + i + 1)
sn_av <- function(v) {
  n <- length(v)
  out <- numeric(n)
  for (i in 1:n) {
    s <- 0
    for (j in 1:n) s <- s + sn_a(i - 1L, j - 1L) * v[[j]]
    out[[i]] <- s
  }
  out
}
sn_atv <- function(v) {
  n <- length(v)
  out <- numeric(n)
  for (i in 1:n) {
    s <- 0
    for (j in 1:n) s <- s + sn_a(j - 1L, i - 1L) * v[[j]]
    out[[i]] <- s
  }
  out
}
spectralnorm_run <- function(n, iters) {
  u <- numeric(n)
  for (i in 1:n) u[[i]] <- 1
  v <- numeric(n)
  for (it in 1:iters) {
    v <- sn_atv(sn_av(u))
    u <- sn_atv(sn_av(v))
  }
  vbv <- 0
  vv <- 0
  for (i in 1:n) {
    vbv <- vbv + u[[i]] * v[[i]]
    vv <- vv + v[[i]] * v[[i]]
  }
  floor(sqrt(vbv / vv) * 1e6)
}
)",
     "spectralnorm_run(40L, 4L)"},

    {"Storage",
     R"(
storage_build <- function(depth) {
  if (depth == 0L) {
    integer(4L)
  } else {
    node <- vector("list", 4L)
    for (i in 1:4) node[[i]] <- storage_build(depth - 1L)
    node
  }
}
storage_run <- function(reps, depth) {
  total <- 0L
  for (r in 1:reps) {
    t <- storage_build(depth)
    total <- total + length(t)
  }
  total
}
)",
     "storage_run(40L, 5L)"},
};

//===----------------------------------------------------------------------===//
// Extra programs for Figs. 4, 8, 9, 10 and 11.
//===----------------------------------------------------------------------===//

const Program Extras[] = {
    // Paper Listing 1 (Fig. 4): naive sum whose element type changes by
    // phase. The driver is supplied per-phase by the harness.
    {"sum",
     R"(
sum_data <- function(data) {
  total <- 0L
  for (i in 1:length(data)) total <- total + data[[i]]
  total
}
)",
     "sum_data(as.numeric(1:10000))"},

    // Paper Listing 8 (Fig. 10): column-wise sum over a "table" (a list of
    // column vectors), alternating integer and double columns.
    {"colsum",
     R"(
col_f <- function(colIndex, t) {
  dataCol <- t[[colIndex]]
  res <- 0
  for (i in 1:length(dataCol)) res <- res + dataCol[[i]]
  res
}
columnwiseSum <- function(t, cols) {
  res <- c()
  for (i in 1:cols) res[[i]] <- col_f(i, t)
  res
}
make_table <- function(cols, rows) {
  # Like the paper's table: the first float column appears only after the
  # compiler has warmed up on integer columns (their Fig. 10 shows the
  # deopt at the fifth column), alternating afterwards.
  t <- vector("list", cols)
  for (c in 1:cols) {
    if (c >= 5L && c %% 2L == 1L) t[[c]] <- as.numeric(1:rows)
    else t[[c]] <- 1:rows
  }
  t
}
)",
     "sum(columnwiseSum(make_table(10L, 2000L), 10L))"},

    // The ray tracer behind the volcano app (Figs. 8/9): a ray marcher
    // over a height map with a selectable interpolation function.
    {"raytrace",
     R"(
interp_bilinear <- function(h, n, fx, fy) {
  x0 <- floor(fx)
  y0 <- floor(fy)
  x1 <- min(x0 + 1, n - 1)
  y1 <- min(y0 + 1, n - 1)
  tx <- fx - x0
  ty <- fy - y0
  h00 <- h[[y0 * n + x0 + 1L]]
  h10 <- h[[y0 * n + x1 + 1L]]
  h01 <- h[[y1 * n + x0 + 1L]]
  h11 <- h[[y1 * n + x1 + 1L]]
  top <- h00 * (1 - tx) + h10 * tx
  bot <- h01 * (1 - tx) + h11 * tx
  top * (1 - ty) + bot * ty
}
interp_nearest <- function(h, n, fx, fy) {
  x0 <- floor(fx + 0.5)
  y0 <- floor(fy + 0.5)
  if (x0 > n - 1) x0 <- n - 1
  if (y0 > n - 1) y0 <- n - 1
  h[[y0 * n + x0 + 1L]]
}
make_heightmap <- function(n) {
  h <- numeric(n * n)
  for (y in 1:n) {
    for (x in 1:n) {
      dx <- (x - n / 2) / n
      dy <- (y - n / 2) / n
      h[[(y - 1L) * n + x]] <- 40 * exp(-8 * (dx * dx + dy * dy))
    }
  }
  h
}
make_heightmap_int <- function(n) {
  h <- integer(n * n)
  for (y in 1:n) {
    for (x in 1:n) {
      dx <- (x - n / 2) / n
      dy <- (y - n / 2) / n
      h[[(y - 1L) * n + x]] <- as.integer(40 * exp(-8 * (dx * dx + dy * dy)))
    }
  }
  h
}
cast_rays <- function(h, n, interp, sunx, suny) {
  light <- 0
  for (ry in 1:(n - 2L)) {
    for (rx in 1:(n - 2L)) {
      z <- interp(h, n, rx, ry) + 0.5
      fx <- rx + 0
      fy <- ry + 0
      lit <- TRUE
      for (step in 1:8) {
        fx <- fx + sunx
        fy <- fy + suny
        z <- z + 0.7
        if (fx < 0 || fy < 0 || fx > n - 2 || fy > n - 2) break
        if (interp(h, n, fx, fy) > z) {
          lit <- FALSE
          break
        }
      }
      if (lit) light <- light + 1
    }
  }
  light
}
render_image <- function(h, n) {
  acc <- 0
  for (i in 1:(n * n)) acc <- acc + h[[i]] * 0.25 + 1
  floor(acc)
}
)",
     "cast_rays(make_heightmap(28L), 28L, interp_bilinear, 0.7, 0.4)"},

    // Fig. 11 comparators (DLS'20 benchmarks).
    // (1) stale type feedback microbenchmark: the helper is trained on a
    // branchy profile that later stabilizes — no deopt is involved.
    {"microbenchmark",
     R"(
micro_f <- function(x, flag) {
  s <- 0
  for (i in 1:length(x)) {
    if (flag) s <- s + x[[i]] else s <- s - x[[i]]
  }
  s
}
)",
     "micro_f(as.numeric(1:3000), TRUE)"},

    // (2) RSA: modular exponentiation where the key parameter changes its
    // type (int -> double), causing a deopt + generic reoptimization.
    {"rsa",
     R"(
modpow <- function(base, exp, m) {
  result <- 1L
  b <- base %% m
  e <- exp
  while (e > 0L) {
    if (e %% 2L == 1L) result <- (result * b) %% m
    e <- e %/% 2L
    b <- (b * b) %% m
  }
  result
}
rsa_run <- function(key, n) {
  acc <- 0L
  for (i in 1:n) acc <- (acc + modpow(i %% 1000L + 2L, key, 30323L)) %% 30323L
  acc
}
)",
     "rsa_run(65L, 600L)"},

    // (3) shared helper: one function called by two callers with different
    // argument types merges unrelated feedback.
    {"shared",
     R"(
shared_helper <- function(v) {
  s <- 0
  for (i in 1:length(v)) s <- s + v[[i]]
  s
}
shared_caller_int <- function(n) shared_helper(1:n)
shared_caller_real <- function(n) shared_helper(as.numeric(1:n))
)",
     "shared_caller_int(2000L) + shared_caller_real(2000L)"},
};

} // namespace

const char *const rjit::suite::NativeColsumSetup = R"(
get <- function(v, k) v[[k]]
colsum <- function(m, w, nr, nc, f) {
  s <- 0
  q <- 0
  for (j in 1:nc) {
    for (i in 1:nr) {
      x <- f(m, (j - 1L) * nr + i)
      y <- w[[i]]
      s <- s + x * y
      q <- q + x - y
    }
  }
  s + q
}
)";

const Program *rjit::suite::mainSuite(size_t &Count) {
  Count = sizeof(MainSuite) / sizeof(MainSuite[0]);
  return MainSuite;
}

const Program *rjit::suite::extras(size_t &Count) {
  Count = sizeof(Extras) / sizeof(Extras[0]);
  return Extras;
}

const Program *rjit::suite::byName(const std::string &Name) {
  size_t N;
  const Program *P = mainSuite(N);
  for (size_t K = 0; K < N; ++K)
    if (Name == P[K].Name)
      return &P[K];
  P = extras(N);
  for (size_t K = 0; K < N; ++K)
    if (Name == P[K].Name)
      return &P[K];
  return nullptr;
}
